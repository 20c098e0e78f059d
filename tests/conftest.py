import numpy as np
import pytest

from ultragw import ScalarMeasure, UmSpace
from ultragw.phylo import PhyloNode


def rand_ultrametric(rng, n, scale=1.0):
    """Random ultrametric space: cophenetic matrix of single linkage on n
    random points of the line, with random (floored) masses."""
    pts = np.sort(rng.uniform(0.0, 1.0, size=n))
    gaps = np.diff(pts)
    u = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            u[i, j] = u[j, i] = float(gaps[i:j].max()) * scale
    mu = rng.dirichlet(np.ones(n))
    mu = (mu + 0.05) / (1.0 + 0.05 * n)
    return UmSpace(["x%d" % k for k in range(n)], u, mu / mu.sum())


def tied_ultrametric(rng, n, jitter=0.0):
    """Random ultrametric whose distances take few values, so that rows
    share exact ties (rounding up is monotone, so ultrametricity holds).
    With `jitter`, off-diagonal entries move up by less than it, so the
    ties hold only within that tolerance."""
    x = rand_ultrametric(rng, n)
    noise = np.triu(rng.uniform(0.0, jitter, size=(n, n)), 1)
    return UmSpace(x.ids, np.ceil(x.u * 4) / 4 + noise + noise.T, x.mu)


def rand_measure(rng, n, lo=0.0, hi=2.0):
    x = np.sort(rng.uniform(lo, hi, size=n))
    m = rng.dirichlet(np.ones(n))
    m = (m + 0.05) / (1.0 + 0.05 * n)
    return ScalarMeasure(x, m / m.sum())


def delta_hat2(d, masses=(0.5, 0.5)):
    """Two-point space with distance d."""
    return UmSpace(["a", "b"], np.array([[0.0, d], [d, 0.0]]),
                   np.array(masses, dtype=float))


def one_point():
    return UmSpace(["o"], np.zeros((1, 1)), np.ones(1))


def rand_tree(rng, max_tips=8, lengths=False, depth=0):
    """Random rooted tree with optional branch lengths."""
    node = PhyloNode()
    if depth > 0:
        node.label = "n%d" % rng.integers(0, 10 ** 6)
        if lengths:
            node.length = float(np.round(rng.uniform(0.1, 2.0), 3))
    if depth >= 4 or (depth > 0 and rng.random() < 0.45):
        return node  # tip
    for _ in range(rng.integers(2, 4)):
        node.children.append(rand_tree(rng, max_tips, lengths, depth + 1))
    return node


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
