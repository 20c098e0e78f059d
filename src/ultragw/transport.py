"""Exact Wasserstein distances used throughout the package.

Closed forms:
  * w_ultrametric: Wasserstein distance between two measures on a common
    finite ultrametric space, evaluated as a sum over merge-tree nodes.
  * w_halfline_rows / w_halfline: Wasserstein distances on the half-line
    with the ultrametric ground cost max(a, b) (for a != b), for whole
    batches of measures at once or for one pair.
  * w_line_rows / w_line_classical: the same on the line with the
    classical cost |a - b|, by the quantile coupling.
  * w_quantile: Wasserstein distance on the half-line with ground cost
    |a^q - b^q|^(1/q), valid for q <= p: w_line_classical of the q-th
    powers at order p/q.

General solver:
  * TransportLP: the transport linear program between two fixed mass
    vectors as one HiGHS model (sparse marginal constraints, two nonzeros
    per coupling cell).  Each solve changes only the costs or the support
    allowed and starts from the previous basis, so a sequence of costs on
    one marginal pair (the Frank-Wolfe linear minimisation step, the
    levels of a bottleneck search) reuses one model.
  * exact_ot: exact discrete optimal transport, either total-cost ("sum")
    or bottleneck ("max") objective, on a fresh or a given TransportLP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize._highspy._core as _highs
from scipy.sparse import csc_array

from .spaces import TAU_MASS, TAU_METRIC, dedup_sorted, merge_tree, run_sums


@dataclass(frozen=True)
class ScalarMeasure:
    """Finitely supported probability measure on the nonnegative reals."""

    x: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).ravel()
        m = np.asarray(self.m, dtype=float).ravel()
        if x.shape != m.shape:
            raise ValueError("support and mass lengths differ")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(m))):
            raise ValueError("support and masses must be finite (no NaN or inf)")
        if np.any(x < -TAU_METRIC):
            raise ValueError("support must be nonnegative")
        if np.any(m < 0):
            raise ValueError("masses must be nonnegative")
        # merge atoms closer than the metric tolerance; the stable sort fixes
        # the order in which masses of one group are summed
        order = np.argsort(x, kind="stable")
        grid = np.array(dedup_sorted(x))
        ms = _histograms(grid, x[order], m[order])[0]
        keep = ms > 0
        x, m = grid[keep], ms[keep]
        if abs(m.sum() - 1.0) > 1e-9:
            raise ValueError("masses must sum to 1")
        x.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "m", m)


def pushforward(values, weights):
    """ScalarMeasure of the weighted empirical distribution of `values`."""
    return ScalarMeasure(np.asarray(values, dtype=float),
                         np.asarray(weights, dtype=float))


def lam(a, b, q):
    """Ground cost Lambda_q(a,b) = |a^q - b^q|^(1/q); at q=inf it is the
    ultrametric max(a,b) for a != b and 0 for a == b."""
    if q == np.inf:
        return 0.0 if abs(a - b) <= TAU_METRIC else max(a, b)
    if q < 1:
        raise ValueError("exponent q must be >= 1")
    return abs(a ** q - b ** q) ** (1.0 / q)


def _histograms(grid, vals, weights):
    """Masses of each row of `vals` (all rows share `weights`) binned into
    the anchored groups of `grid`: a value belongs to the group of the
    last grid value not above it.  Returns a (rows, len(grid)) array."""
    vals = np.atleast_2d(vals)
    rows, g = vals.shape[0], len(grid)
    idx = np.searchsorted(grid, vals, side="right") - 1
    idx += g * np.arange(rows)[:, None]
    w = np.broadcast_to(np.asarray(weights, dtype=float), vals.shape)
    return np.bincount(idx.ravel(), weights=w.ravel(),
                       minlength=rows * g).reshape(rows, g)


def _merged_histograms(va, wa, vb, wb):
    """One merged grid for both batches of row measures (distinct values,
    anchored TAU_METRIC dedup) and the row histograms of each on it."""
    va = np.atleast_2d(np.asarray(va, dtype=float))
    vb = np.atleast_2d(np.asarray(vb, dtype=float))
    grid = np.array(dedup_sorted(np.concatenate([va.ravel(), vb.ravel()])))
    return grid, _histograms(grid, va, wa), _histograms(grid, vb, wb)


def _check_rows(va, wa, vb, wb, p):
    """The input checks the two batched kernels share."""
    if not p >= 1:
        raise ValueError("order p must be >= 1")
    if not all(np.isfinite(v).all() for v in (va, wa, vb, wb)):
        raise ValueError("supports and weights must be finite (no NaN or inf)")


def w_halfline_rows(va, wa, vb, wb, p):
    """Half-line Wasserstein distances under the ultrametric ground cost
    max(a,b) (a != b) between every row measure of one batch and every row
    measure of another, in closed form over one merged grid.

    Row i of `va` holds the support of the i-th measure of the first batch,
    whose atoms all carry the weights `wa`; `vb` and `wb` likewise for the
    second batch.  Returns the (m, n) distance matrix.  Each row of the
    first batch is compared with the whole second batch at once, so the
    work is O(m n G) and the memory O(n G) for a grid of G values.
    """
    _check_rows(va, wa, vb, wb, p)
    xs, ha, hb = _merged_histograms(va, wa, vb, wb)
    if p != np.inf:
        xp = xs ** p
        dxp = np.abs(np.diff(xp))
    out = np.empty((len(ha), len(hb)))
    for i, row in enumerate(ha):
        diff = row - hb
        # masses arrive as floats; differences below the mass tolerance
        # are noise
        diff[np.abs(diff) <= TAU_MASS] = 0.0
        cum = np.cumsum(diff[:, :-1], axis=1)
        if p == np.inf:
            # unmatched mass below xs[k+1] must reach xs[k+1]; an unmatched
            # atom at xs[k] costs xs[k]
            spill = np.where(np.abs(cum) > TAU_MASS, xs[1:], 0.0)
            atom = np.where(np.abs(diff) > TAU_MASS, xs, 0.0)
            out[i] = np.maximum(spill.max(axis=1, initial=0.0),
                                atom.max(axis=1, initial=0.0))
        else:
            cum[np.abs(cum) <= TAU_MASS] = 0.0
            out[i] = np.abs(cum) @ dxp + np.abs(diff) @ xp
    return out if p == np.inf else (0.5 * out) ** (1.0 / p)


def w_halfline(alpha, beta, p):
    """Wasserstein distance on the half-line under the ultrametric ground
    cost max(a,b) (a != b): the 1 x 1 case of w_halfline_rows."""
    return float(w_halfline_rows(alpha.x, alpha.m, beta.x, beta.m, p)[0, 0])


def w_line_rows(va, wa, vb, wb, p):
    """Like w_halfline_rows, the (m, n) matrix of distances between the row
    measures of two batches, but on the line under the classical ground
    cost |a-b|, by the quantile coupling.  The CDFs live on one grid of
    the exact distinct values: the cost is continuous, so it needs no tie
    classes.  Per row of the first batch, one sort of its CDF values with
    those of every row of the second batch cuts [0, 1] into the segments
    on which both quantile functions are constant."""
    _check_rows(va, wa, vb, wb, p)
    grid = np.unique(np.concatenate([np.ravel(va), np.ravel(vb)]))
    g = len(grid)
    ca = np.cumsum(_histograms(grid, va, wa), axis=1)
    cb = np.cumsum(_histograms(grid, vb, wb), axis=1)
    out = np.empty((len(ca), len(cb)))
    for i, row in enumerate(ca):
        ts = np.concatenate([np.broadcast_to(row, cb.shape), cb], axis=1)
        order = np.argsort(ts, axis=1, kind="stable")
        # on the segment that ends at the s-th sorted CDF value, each
        # quantile sits at the count of its own CDF values sorted before s
        nb = np.cumsum(order >= g, axis=1) - (order >= g)
        gap = np.abs(grid[np.minimum(np.arange(2 * g) - nb, g - 1)]
                     - grid[np.minimum(nb, g - 1)])
        length = np.diff(np.take_along_axis(ts, order, axis=1), prepend=0.0)
        # segments within the mass tolerance are rounding noise between
        # equal CDF values
        length[length <= TAU_MASS] = 0.0
        out[i] = (np.where(length > 0, gap, 0.0).max(axis=1) if p == np.inf
                  else (length * gap ** p).sum(axis=1))
    return out if p == np.inf else out ** (1.0 / p)


def w_line_classical(alpha, beta, p):
    """Classical Wasserstein distance on the real line (ground cost |a-b|),
    p=inf included: the 1 x 1 case of w_line_rows."""
    return float(w_line_rows(alpha.x, alpha.m, beta.x, beta.m, p)[0, 0])


def w_quantile(alpha, beta, p, q=1):
    """Wasserstein distance on the half-line with ground cost Lambda_q:
    the classical distance of the q-th powers at order p/q, to the 1/q.
    Exact only for q <= p < inf; for q > p the quantile coupling is no
    longer optimal, so the call is refused."""
    if not (1 <= q <= p < np.inf):
        raise ValueError(
            "quantile closed form requires 1 <= q <= p < inf; for q > p it "
            "is only an upper bound and is not computed here")
    w = w_line_rows(alpha.x ** q, alpha.m, beta.x ** q, beta.m, p / q)
    return float(w[0, 0]) ** (1.0 / q)


def w_ultrametric(space, alpha, beta, p):
    """Wasserstein distance between two measures alpha, beta on a common
    finite ultrametric space, via the merge-tree closed form.  The mass
    vectors must be finite, nonnegative and equal in total within
    TAU_MASS."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != (space.n,) or beta.shape != (space.n,):
        raise ValueError("mass vectors must match the space size")
    if np.any(np.abs(np.diag(space.u)) > TAU_METRIC):
        raise ValueError("w_ultrametric requires an ultrametric (zero diagonal)")
    if p < 1:
        raise ValueError("order p must be >= 1")
    if not all(np.all(np.isfinite(m) & (m >= 0)) for m in (alpha, beta)):
        raise ValueError("masses must be finite and nonnegative")
    if abs(alpha.sum() - beta.sum()) > TAU_MASS:
        raise ValueError("the two measures must have equal total mass")
    # one term per cluster C below the root of the merge tree: its parent's
    # height and the mass alpha(C) - beta(C) that has to leave or enter it,
    # a difference of one cumulative sum of alpha - beta in leaf order
    tree = merge_tree(space)
    _, level, children, _, _ = tree
    height = np.concatenate([np.diag(space.u),
                             np.array(space.levels)[level[space.n:]]])
    child, parent = np.array([(c, v) for v, kids in enumerate(children)
                              for c in kids], dtype=int).reshape(-1, 2).T
    gap = np.abs(run_sums(tree, alpha - beta))[child]
    if p == np.inf:
        return float(height[parent][gap > TAU_MASS].max(initial=0.0))
    acc = float(((height[parent] ** p - height[child] ** p) * gap).sum())
    return (0.5 * acc) ** (1.0 / p)


def check_coupling(plan, mu, nu, tol=1e-9):
    plan = np.asarray(plan, dtype=float)
    if plan.shape != (len(mu), len(nu)):
        raise ValueError("coupling shape mismatch")
    if np.any(plan < -tol):
        raise ValueError("coupling has negative entries")
    if (np.max(np.abs(plan.sum(axis=1) - mu)) > tol
            or np.max(np.abs(plan.sum(axis=0) - nu)) > tol):
        raise ValueError("coupling marginals do not match")
    return plan


def product_coupling(mu, nu):
    return np.outer(mu, nu)


# ---------------------------------------------------------------------------
# exact discrete optimal transport


def marginal_constraints(m, n):
    """Sparse (m+n, m*n) 0/1 CSC matrix of the marginal constraints on an
    m x n coupling flattened row-major: m row sums, then n column sums.
    Column i*n + j holds two ones, in rows i and m + j."""
    rows = np.empty((m, n, 2), dtype=np.int32)
    rows[:, :, 0] = np.arange(m)[:, None]
    rows[:, :, 1] = m + np.arange(n)
    return csc_array((np.ones(2 * m * n), rows.ravel(),
                      np.arange(0, 2 * m * n + 1, 2, dtype=np.int32)),
                     shape=(m + n, m * n))


class TransportLP:
    """The transport LP between fixed marginals mu and nu, kept as one
    HiGHS model over the sparse marginal constraints.  A solve changes
    the column costs, and the upper bounds when the cells allowed differ
    from the previous solve's, and reruns HiGHS, which starts from the
    basis the previous solve left: with primal simplex after an optimal
    solve on the same cells, with dual simplex otherwise."""

    def __init__(self, mu, nu):
        self.mu = np.asarray(mu, dtype=float)
        self.nu = np.asarray(nu, dtype=float)
        self.shape = (len(self.mu), len(self.nu))
        k = self.mu.size * self.nu.size
        a = marginal_constraints(*self.shape)
        lp = _highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = k
        lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = a.data
        lp.col_cost_ = np.zeros(k)
        lp.col_lower_ = np.zeros(k)
        lp.col_upper_ = np.full(k, np.inf)
        lp.row_lower_ = lp.row_upper_ = np.concatenate([self.mu, self.nu])
        self._highs = _highs._Highs()
        self._highs.setOptionValue("output_flag", False)
        # presolve buys nothing on transport constraints: without it a
        # cold 24 x 30 solve takes 2.1 ms instead of 4.2 ms, and a warm
        # solve goes straight from the previous basis
        self._highs.setOptionValue("presolve", "off")
        # at the default 1e-7 a warm solve can end on a basis with an entry
        # near -1e-7, which check_coupling (tolerance 1e-9) rejects
        self._highs.setOptionValue("primal_feasibility_tolerance", 1e-10)
        if self._highs.passModel(lp) != _highs.HighsStatus.kOk:
            raise ValueError("HiGHS rejected the transport model")
        self._cols = np.arange(k, dtype=np.int32)
        self._lower = np.zeros(k)
        self._support = None  # the cells the bounds allow: every one
        self._optimal = False  # whether the last solve ended optimal

    def solve(self, cost, allowed=None):
        """Optimal plan for `cost` among the couplings supported on the
        cells where `allowed` holds (every cell when None), or None when
        HiGHS does not report an optimum (an infeasible support)."""
        h, k = self._highs, self._cols.size
        # HiGHS reads k values from each array: reshape rejects other sizes
        cost = np.ascontiguousarray(cost, dtype=float).reshape(k)
        # every coupling has the same mass, so mapping the costs affinely
        # onto [0, 1] keeps the optimal plans; it puts HiGHS's absolute
        # tolerances on the scale of the cost range, where a gradient of
        # costs in [700, 940] ended with a status of unknown
        lo, hi = cost.min(), cost.max()
        cost = (cost - lo) / (hi - lo) if hi > lo else np.zeros(k)
        # the bounds change only with the support allowed; every
        # Frank-Wolfe step solves on the whole support
        support = None if allowed is None else np.asarray(
            allowed, dtype=bool).tobytes()
        if support != self._support:
            upper = np.full(k, np.inf) if allowed is None else np.where(
                np.reshape(allowed, k), np.inf, 0.0)
            h.changeColsBounds(k, self._cols, self._lower, upper)
            self._support = support
            self._optimal = False
        # a new cost on the support of an optimal solve leaves its basis
        # primal feasible, so primal simplex goes on from it; cold solves
        # and new bounds run dual simplex, HiGHS's default
        h.setOptionValue("simplex_strategy", 4 if self._optimal else 1)
        h.changeColsCost(k, self._cols, cost)
        h.run()
        self._optimal = (h.getModelStatus()
                         == _highs.HighsModelStatus.kOptimal)
        if not self._optimal:
            return None
        return np.array(h.getSolution().col_value).reshape(self.shape)


def exact_ot(cost, mu, nu, p_mode="sum", lp=None):
    """Exact optimal transport between mass vectors mu and nu.

    p_mode "sum" minimizes the total cost <cost, plan>; "max" minimizes the
    bottleneck max cost over the support of the plan (binary search over the
    distinct cost values with an exact feasibility check per level).
    `lp` is a TransportLP of (mu, nu) to reuse; by default a fresh one is
    built when a solve is needed, and the bottleneck search reuses it
    across its levels.
    Returns (value, plan).
    """
    cost = np.asarray(cost, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if abs(mu.sum() - nu.sum()) > 1e-9:
        raise ValueError("marginals have different total mass")
    if cost.shape != (len(mu), len(nu)):
        raise ValueError("cost shape does not match the marginals")
    if lp is not None and not (np.array_equal(lp.mu, mu)
                               and np.array_equal(lp.nu, nu)):
        raise ValueError("lp was built for other marginals")
    if p_mode == "sum":
        if lp is None:
            lp = TransportLP(mu, nu)
        plan = lp.solve(cost)
        if plan is None:  # pragma: no cover - marginals already checked
            raise RuntimeError("LP solver failed on a feasible instance")
        return float((cost * plan).sum()), plan
    if p_mode != "max":
        raise ValueError("p_mode must be 'sum' or 'max'")
    levels = dedup_sorted(np.sort(cost.ravel()))
    zero = np.zeros_like(cost)
    lo, hi = 0, len(levels) - 1
    # the product coupling is feasible at the largest level; a search
    # that finds no lower one returns it without solving
    plan = product_coupling(mu, nu)
    if lo < hi and lp is None:
        lp = TransportLP(mu, nu)
    while lo < hi:
        mid = (lo + hi) // 2
        found = lp.solve(zero, allowed=cost <= levels[mid] + TAU_METRIC)
        if found is not None:
            plan, hi = found, mid
        else:
            lo = mid + 1
    # report the actual bottleneck of the returned plan
    support = plan > TAU_MASS
    value = float(cost[support].max()) if support.any() else 0.0
    return value, plan
