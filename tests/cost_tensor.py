"""Dense reference for the distortion operator, used by the tests as an
oracle for ``gw.Distortion``: the full 4-tensor of ground costs, contracted
with numpy.  It takes (m n)^2 floats, so it serves small spaces only."""

import numpy as np

from ultragw.spaces import TAU_MASS, TAU_METRIC


def cost_tensor(X, Y, p, ultra=True):
    """4-tensor of pairwise ground costs raised to the p-th power:
    T[i,j,k,l] = cost(u_X[i,k], u_Y[j,l])^p."""
    a = X.u[:, None, :, None]
    b = Y.u[None, :, None, :]
    if ultra:
        c = np.where(np.abs(a - b) <= TAU_METRIC, 0.0, np.maximum(a, b))
    else:
        c = np.abs(a - b)
    if p == np.inf:
        return c
    return c ** p


def apply(t, plan):
    """D(plan)[i,j] = sum_kl T[i,j,k,l] plan[k,l]."""
    return np.tensordot(t, plan, axes=([2, 3], [0, 1]))


def value(t, plan):
    """<D(plan), plan>, the p-th power of the distortion."""
    return float(np.einsum("ijkl,ij,kl->", t, plan, plan))


def sup(t, plan):
    """Largest cost over pairs of support cells: the p = inf distortion."""
    m, n = plan.shape
    s = (plan > TAU_MASS).ravel()
    return float(t.reshape(m * n, m * n)[np.ix_(s, s)].max())
