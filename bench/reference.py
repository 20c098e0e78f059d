"""Independent reference values and output checks.

The references are written from the definitions, not from the library:
the half-line Wasserstein distance under the ultrametric cost
max(a, b) (a != b) by its CDF closed form, and the outer transport
problems of the third lower bound by ``scipy.optimize.linprog``.  The
benchmark's tests check the closed form against a linear program.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import linprog

TOL = 1e-9


def merged_support(values, tol=TOL):
    """Sorted distinct values, with values closer than tol merged into
    the smallest of their group (the library's rule for atoms)."""
    xs = []
    for x in np.sort(np.asarray(values, float)):
        if not xs or x - xs[-1] > tol:
            xs.append(float(x))
    return np.array(xs)


def halfline_w(xa, ma, xb, mb, p):
    """W_p between two measures on the half-line under the cost
    max(a, b) for a != b and 0 for a == b, from their CDFs:

      W_p^p = 1/2 [ sum_i |F_a(s_i) - F_b(s_i)| (s_{i+1}^p - s_i^p)
                    + sum_i |a(s_i) - b(s_i)| s_i^p ]

    over the merged support s_0 < s_1 < ...  At p = inf the distance is
    the largest s_{i+1} after a CDF gap, or s_i carrying unequal mass."""
    xs = merged_support(np.concatenate([xa, xb]))
    a = np.zeros(len(xs))
    b = np.zeros(len(xs))
    # each atom goes to the representative of its merged group
    np.add.at(a, np.searchsorted(xs, np.asarray(xa) - TOL), ma)
    np.add.at(b, np.searchsorted(xs, np.asarray(xb) - TOL), mb)
    cdf = np.abs(np.cumsum(a) - np.cumsum(b))[:-1]
    diff = np.abs(a - b)
    if p == np.inf:
        return float(max(xs[1:][cdf > 1e-12].max(initial=0.0),
                         xs[diff > 1e-12].max(initial=0.0)))
    xp = xs ** p
    total = float(np.sum(cdf * np.diff(xp)) + np.sum(diff * xp))
    return (0.5 * total) ** (1.0 / p)


def _ot_lp(cost, mu, nu, allowed=None):
    m, n = cost.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    if allowed is None:
        c, bounds = cost.ravel(), (0.0, None)
    else:
        c = np.zeros(m * n)
        bounds = [(0.0, None if ok else 0.0) for ok in allowed.ravel()]
    return linprog(c, A_eq=a_eq, b_eq=np.concatenate([mu, nu]),
                   bounds=bounds, method="highs")


def ot_value(cost, mu, nu, p):
    """min over couplings of (sum cost^p pi)^(1/p); bottleneck at p=inf."""
    if p != np.inf:
        res = _ot_lp(cost ** p, mu, nu)
        return max(float(res.fun), 0.0) ** (1.0 / p)
    levels = np.unique(cost)
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _ot_lp(cost, mu, nu, allowed=cost <= levels[mid] + TOL).success:
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def uslb(ux, mux, uy, muy, p):
    return halfline_w(ux.ravel(), np.outer(mux, mux).ravel(),
                      uy.ravel(), np.outer(muy, muy).ravel(), p)


def uflb(ux, mux, uy, muy, p):
    def ecc(u, mu):
        return u.max(axis=1) if p == np.inf else ((u ** p) @ mu) ** (1.0 / p)
    return halfline_w(ecc(ux, mux), mux, ecc(uy, muy), muy, p)


def utlb(ux, mux, uy, muy, p):
    cost = np.array([[halfline_w(ux[i], mux, uy[j], muy, p)
                      for j in range(len(uy))] for i in range(len(ux))])
    return ot_value(cost, mux, muy, p)


BOUNDS = {"uslb": uslb, "uflb": uflb, "utlb": utlb}


def tree_shape_u(newick):
    """Tip dissimilarities of a Newick tree shape with unit edges: with d
    the largest tip depth, u(x, y) = d - depth(lca(x, y)) and
    u(x, x) = d - depth(x).  Parsed here from the plain bracket structure
    (labels only, no lengths or comments)."""
    paths, stack, label, nodes = [], [], "", 0
    for ch in newick.strip().rstrip(";"):
        if ch == "(":
            nodes += 1
            stack.append((stack[-1] if stack else []) + [nodes])
        elif ch in ",)":
            if label:
                paths.append(stack[-1])
                label = ""
            if ch == ")":
                stack.pop()
        else:
            label += ch
    if label:
        paths.append([])
    n = len(paths)
    d = max(len(pa) for pa in paths)
    u = np.zeros((n, n))
    for i in range(n):
        u[i, i] = d - len(paths[i])
        for j in range(i + 1, n):
            common = 0
            for x, y in zip(paths[i], paths[j]):
                if x != y:
                    break
                common += 1
            u[i, j] = u[j, i] = d - (common - 1)
    return u


# ---------------------------------------------------------------------------
# output checks


def read_csv_matrix(text):
    rows = [line.split(",") for line in text.strip().split("\n")]
    ids = rows[0][1:]
    mat = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return ids, mat


def check_matrix(ids, mat, expected_ids):
    problems = []
    if list(ids) != list(expected_ids):
        problems.append("ids %r, expected %r" % (ids, expected_ids))
    if mat.shape != (len(expected_ids),) * 2:
        return problems + ["shape %r" % (mat.shape,)]
    if not np.all(np.isfinite(mat)):
        problems.append("non-finite entries")
    if np.any(mat < 0):
        problems.append("negative entries")
    if np.any(np.diag(mat) != 0):
        problems.append("non-zero diagonal")
    if np.any(mat != mat.T):
        problems.append("asymmetric")
    return problems


def check_close(name, got, want, rtol=1e-7):
    if abs(got - want) <= rtol * max(1.0, abs(want)):
        return []
    return ["%s = %.17g, reference %.17g" % (name, got, want)]


def check_matching(matching, mux, muy):
    """Matched blocks must partition both point sets, with equal masses."""
    problems = []
    for side, k, mu in (("X", 0, mux), ("Y", 1, muy)):
        pts = sorted(i for pair in matching for i in pair[k])
        if pts != list(range(len(mu))):
            problems.append("matched %s blocks do not partition the points"
                            % side)
    for a, b in matching:
        if abs(np.sum(np.asarray(mux)[a]) - np.sum(np.asarray(muy)[b])) > TOL:
            problems.append("unequal masses on matched blocks %r / %r"
                            % (a, b))
            break
    return problems


def distortion(ux, uy, plan, p, ultra):
    """(sum_{ijkl} c(ux[i,k], uy[j,l])^p plan[i,j] plan[k,l])^(1/p) with
    c = max on distinct values (ultra) or |a - b|, one row i at a time."""
    total = 0.0
    for i in range(len(ux)):
        a = ux[i][None, :, None]           # k
        b = uy[:, None, :]                 # j, l
        if ultra:
            c = np.where(np.abs(a - b) <= TOL, 0.0, np.maximum(a, b))
        else:
            c = np.abs(a - b)
        inner = np.einsum("jkl,kl->j", c ** p, plan)
        total += float(plan[i] @ inner)
    return max(total, 0.0) ** (1.0 / p)


def check_coupling(obj, ux, mux, uy, muy, p, classical):
    plan = np.asarray(obj["coupling"], float)
    problems = []
    if plan.shape != (len(mux), len(muy)):
        return ["coupling shape %r" % (plan.shape,)]
    if np.any(plan < -TOL):
        problems.append("negative coupling entries")
    if (np.max(np.abs(plan.sum(axis=1) - mux)) > TOL
            or np.max(np.abs(plan.sum(axis=0) - muy)) > TOL):
        problems.append("coupling marginals off by more than 1e-9")
    want = distortion(ux, uy, plan, p, ultra=not classical)
    if classical:
        want *= 0.5
    return problems + check_close("ugw value", float(obj["value"]), want,
                                  rtol=1e-9)


def load_json(path):
    with open(path) as f:
        return json.load(f)
