"""Gromov-Wasserstein machinery for ultrametric measure spaces.

Contains the coupling distortion functionals (ultrametric and classical)
and the p-diameter, all evaluated through one linear distortion operator
on couplings; the exact polynomial-time solvers for the order-infinity
distance and the Gromov-Hausdorff variant via canonical forms of weighted
quotients; a Frank-Wolfe solver with hit-and-run restarts for finite
orders; and a brute-force solver for Sturm's version at desk scale.

The distortion operator comes in two forms, and neither builds the
(m n)^2 tensor of ground costs.  Every reported value (dis_ult,
dis_classical, diam_p and the value ugw_fw returns) comes from the
chunked pass over a coupling's nonzero cells, which reads the distances
as they are.  Frank-Wolfe iterates with the merge-tree form wherever the
trees hold the distances (ultrametric and ultra-dissimilarity spaces),
built once per pair from both trees on their merged spectrum: four
matrix products per application, O(m n (m + n)) time for dense starts
and sparse vertices alike.  It keeps D(plan) as state and applies the
operator once per iteration, to the vertex of the linear minimisation
step.  An isomorphic pair skips Frank-Wolfe: the canonical leaf orders of
the two merge trees pair the points, and the coupling of that pairing is
returned when its distortion is exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import (CANON_QUANT, TAU_MASS, TAU_METRIC, UmSpace,
                     canonical_walk, dedup_sorted, merge_tree, run_sums,
                     spectrum)
from .spaces import canonical_signature  # noqa: F401  (re-exported)
from .transport import (TransportLP, check_coupling, exact_ot,
                        product_coupling, w_ultrametric)


class SizeCapError(ValueError):
    """Raised when a brute-force solver would exceed its size cap."""


@dataclass
class FwConfig:
    restarts: int = 40
    iterations: int = 5000
    step_rule: str = "exact_line_search"  # or "harmonic"
    hitrun_steps: int = 10
    seed: int = 0
    tol_stationarity: float = 1e-10

    def __post_init__(self):
        if self.restarts < 1 or self.iterations < 1:
            raise ValueError("restarts and iterations must be >= 1")
        if self.step_rule not in ("exact_line_search", "harmonic"):
            raise ValueError("unknown step rule %r" % self.step_rule)


@dataclass
class GwResult:
    value: float
    method: str
    coupling: np.ndarray | None = None
    level: float | None = None
    matching: list | None = None
    trace: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# distortion functionals


# Every temporary of the distortion operator holds at most this many values
# (1 MB of float64); the number of plan cells taken per pass follows from
# it.  A dense plan of up to 362 cells, or a Frank-Wolfe vertex of up to
# 40 x 40 points, takes one pass.
_CHUNK_VALUES = 1 << 17


def _ground_cost(a, b, p, ultra):
    """Ground cost c(a, b) of broadcast value arrays, raised to the p-th
    power for finite p: for the ultrametric cost 0 within TAU_METRIC and
    max(a, b) otherwise, for the classical one |a - b|."""
    c = np.subtract(a, b)
    np.abs(c, out=c)
    if ultra:
        tie = c <= TAU_METRIC
        np.maximum(a, b, out=c)
        np.copyto(c, 0.0, where=tie)
    if p != np.inf:
        c **= p
    return c


class Distortion:
    """Distortion operator of two spaces on their m x n couplings,
    D(plan)[i,j] = sum_kl c(u_X[i,k], u_Y[j,l]) plan[k,l], with the ground
    cost c of `_ground_cost`, summed over the plan's nonzero cells a chunk
    at a time: O(m n) time per cell, and every temporary holds at most
    _CHUNK_VALUES values, so the (m n)^2 cost tensor is never formed.  D is
    linear, and self-adjoint for symmetric u_X and u_Y: the p-th power of a
    coupling's distortion is <D(plan), plan>.  It reads the distances as
    they are, so it evaluates every reported distortion; Frank-Wolfe
    iterates with TreeDistortion where the merge trees hold the
    distances."""

    def __init__(self, X, Y, p, ultra):
        self.ux, self.uy, self.p, self.ultra = X.u, Y.u, p, ultra

    def __call__(self, plan):
        k, l = np.nonzero(plan)
        w = plan[k, l]
        m, n = plan.shape
        step = max(1, _CHUNK_VALUES // (m * n))
        out = np.zeros(m * n)
        for s in range(0, len(w), step):
            c = _ground_cost(self.ux[:, None, k[s:s + step]],
                             self.uy[None, :, l[s:s + step]], self.p,
                             self.ultra)
            out += c.reshape(m * n, -1) @ w[s:s + step]
        return out.reshape(m, n)

    def sup(self, plan):
        """Largest ground cost over pairs of support cells (mass above
        TAU_MASS) of the plan: the distortion at p = inf."""
        k, l = np.nonzero(plan > TAU_MASS)
        step = max(1, _CHUNK_VALUES // len(k))
        return max(float(_ground_cost(self.ux[np.ix_(k, k[s:s + step])],
                                      self.uy[np.ix_(l, l[s:s + step])],
                                      self.p, self.ultra).max())
                   for s in range(0, len(k), step))


def _cluster_factors(space, grid):
    """The merge tree of the space on `grid` as the n x C 0/1 matrix of
    point i in cluster A (its run of the leaf order holds i), and each
    cluster's birth and death level indices: its own level (for a point,
    that of u[i,i]) and its parent's, len(grid) for the root, which never
    dies."""
    order, level, children, start, stop = merge_tree(space, grid)
    pos = np.empty(space.n, dtype=int)
    pos[order] = np.arange(space.n)
    member = (start <= pos[:, None]) & (pos[:, None] < stop)
    death = np.full(len(level), len(grid))
    for v, kids in enumerate(children):
        death[list(kids)] = level[v]
    return member.astype(float), level, death


class TreeDistortion:
    """The distortion operator of Distortion in merge-tree form, for the
    distances snapped to the merged spectrum of both spaces (the grid of
    _level_sweep): D(plan) = P_X (K o (P_X^T plan P_Y)) P_Y^T, four matrix
    products at the same cost for dense and sparse plans, O(m n (m + n))
    time and O((m + n)^2) memory.

    P_X is the point-in-cluster matrix of X's merge tree.  The shell
    {k : u_X[i,k] = v_s} of a point i is the signed sum of the clusters
    that hold i and are born at level s (+1) or die there (-1), and
    likewise in Y, so K[A,B] = c(b_A,b_B) - c(b_A,d_B) - c(d_A,b_B) +
    c(d_A,d_B) for births b and deaths d, with c the ground cost between
    grid values (0 on the diagonal for the ultrametric cost, as the grid
    values lie more than TAU_METRIC apart) and 0 for the root's death.
    This extends Peyre, Cuturi and Solomon (ICML 2016, Prop. 1) from the
    square loss to the ultrametric cost.  The four terms of K cancel to
    about 1e-16 of the largest cost, so reported values come from
    Distortion."""

    def __init__(self, X, Y, p, ultra):
        grid = dedup_sorted(np.maximum(spectrum(X) + spectrum(Y), 0.0))
        self.px, bx, dx = _cluster_factors(X, grid)
        self.py, by, dy = _cluster_factors(Y, grid)
        v = np.array(grid)
        c = np.pad(_ground_cost(v[:, None], v[None, :], p, ultra), (0, 1))
        self.k = (c[np.ix_(bx, by)] - c[np.ix_(bx, dy)] - c[np.ix_(dx, by)]
                  + c[np.ix_(dx, dy)])

    def __call__(self, plan):
        return self.px @ (self.k * (self.px.T @ plan @ self.py)) @ self.py.T


def _dis(X, Y, plan, p, ultra):
    plan = check_coupling(plan, X.mu, Y.mu)
    op = Distortion(X, Y, p, ultra)
    if p == np.inf:
        return op.sup(plan)
    val = float((op(plan) * plan).sum())
    return max(val, 0.0) ** (1.0 / p)


def dis_ult(X, Y, plan, p):
    """p-distortion of a coupling with the ultrametric ground cost
    max(a,b) on distinct distance values; sup over the support at p=inf."""
    return _dis(X, Y, plan, p, ultra=True)


def dis_classical(X, Y, plan, p):
    """Classical p-distortion of a coupling with ground cost |a-b|.
    Note: the classical GW distance carries a leading 1/2 in front of the
    infimum (see dgw_fw); the ultrametric one does not."""
    return _dis(X, Y, plan, p, ultra=False)


def diam_p(space, p):
    """p-diameter: (sum u^p mu x mu)^(1/p), or max u at p=inf.

    For finite p this is the distortion of the only coupling between the
    space and a one-point space, and it is evaluated as such by dis_ult,
    so ugw_fw against a one-point space reports it bit-for-bit.
    """
    if p == np.inf:
        return float(space.u.max())
    point = UmSpace(("o",), np.zeros((1, 1)), np.ones(1))
    return dis_ult(space, point, space.mu[:, None], p)


# ---------------------------------------------------------------------------
# exact order-infinity solvers


def _require_ultrametric(X, Y):
    for name, space in (("X", X), ("Y", Y)):
        if np.any(np.abs(np.diag(space.u)) > TAU_METRIC):
            raise ValueError("%s must be ultrametric (zero diagonal)" % name)
        if space.faults:  # cached: validated once per space
            raise ValueError("%s failed ultrametric validation: %r"
                             % (name, list(space.faults[:3])))


def _level_sweep(X, Y, with_mass):
    """Shared search for the exact order-infinity solvers: the smallest
    level of the merged spectrum at which the quotients are isomorphic
    (weighted when with_mass is set), and the block matching there.

    Both merge trees are snapped to the merged spectrum once.  At level k
    the clusters of level <= k are the quotient's points, keyed by their
    quantised mass; every other cluster is keyed by (level index, mass,
    sorted child ids).  One table shared by X and Y numbers the keys, so
    the quotients are isomorphic iff the two roots get the same id.  An
    isomorphism at level k keeps levels, so it induces one at every level
    above: the passing levels are the top ones (the top level, a single
    point on both sides, passes), and the lowest is found by a galloping
    search down from the top, in O(log) levels."""
    # levels below 0 are 0 within TAU_METRIC; quotients are cut at t >= 0
    grid = dedup_sorted(np.maximum(spectrum(X) + spectrum(Y), 0.0))
    trees = [merge_tree(s, grid) for s in (X, Y)]
    ids = {}
    mass = [[int(round(m / CANON_QUANT)) if with_mass else None
             for m in run_sums(t, s.mu).tolist()]
            for s, t in zip((X, Y), trees)]
    points = [[ids.setdefault(("point", q), len(ids)) for q in qm]
              for qm in mass]

    def names(k):
        out = [list(p) for p in points]
        for (_, level, children, _, _), qm, name in zip(trees, mass, out):
            for v in np.nonzero(level > k)[0].tolist():  # bottom-up
                kids = tuple(sorted(name[c] for c in children[v]))
                name[v] = ids.setdefault((level[v], qm[v], kids), len(ids))
        return out

    # steps down from the top double until a level fails, then halve
    fail, passing, step = -1, len(grid) - 1, 1
    while passing - fail > 1:
        k = max(passing - step, (fail + passing) // 2)
        x, y = names(k)
        if x[-1] == y[-1]:
            passing, step = k, 2 * step
        else:
            fail = k
    if not with_mass:
        return float(grid[passing]), None
    # the two walks of the cut trees meet matching blocks in step; a block
    # is labelled by its point ids in index order, joined by "|"
    walks = []
    for s, tree, name in zip((X, Y), trees, names(passing)):
        order, start, stop = (tree[k].tolist() for k in (0, 3, 4))
        block = {}

        def label(c):
            block[c] = tuple(sorted(order[start[c]:stop[c]]))
            return "|".join(s.ids[i] for i in block[c])

        leaves = canonical_walk(tree, name, label, passing)[1]
        walks.append([block[c] for c in leaves])
    return float(grid[passing]), sorted(zip(*walks))


def ugw_inf_exact(X, Y):
    """Exact order-infinity ultrametric GW distance: the smallest level t
    at which the weighted quotients of X and Y at t are isomorphic."""
    _require_ultrametric(X, Y)
    level, pair = _level_sweep(X, Y, with_mass=True)
    return GwResult(value=level, method="ugw-inf", level=level, matching=pair)


def ugh_exact(X, Y):
    """Exact ultrametric Gromov-Hausdorff distance: same sweep as
    ugw_inf_exact but with mass-blind quotient isomorphism."""
    _require_ultrametric(X, Y)
    level, _ = _level_sweep(X, Y, with_mass=False)
    return level


# ---------------------------------------------------------------------------
# hit-and-run sampling of the coupling polytope


def _kernel_direction(rng, m, n):
    """Random unit direction in the kernel of the marginal constraints of
    an m x n coupling, flattened row-major, or None if it degenerates.  A
    Gaussian matrix double-centred (row means, then column means removed)
    is its orthogonal projection onto that kernel, so the direction is
    uniform on the kernel's unit sphere."""
    d = rng.standard_normal((m, n))
    d -= d.mean(axis=1, keepdims=True)
    d -= d.mean(axis=0, keepdims=True)
    norm = np.linalg.norm(d)
    return None if norm < 1e-14 else d.ravel() / norm


def hitrun_couplings(mu, nu, count, steps=10, seed=0, rng=None):
    """Approximately uniform couplings of (mu, nu) by hit-and-run: random
    direction in the null space of the marginal constraints, uniform jump
    on the feasible chord, one coupling emitted every `steps` jumps."""
    if count < 1:
        raise ValueError("count must be >= 1")
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    m, n = len(mu), len(nu)
    start = product_coupling(mu, nu)
    if m == 1 or n == 1:
        return [start.copy() for _ in range(count)]
    if rng is None:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    p = start.ravel().copy()
    out = []
    for _ in range(count):
        for _ in range(steps):
            d = _kernel_direction(rng, m, n)
            if d is None:
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = -p / d
            lo = ratios[d > 1e-15]
            hi = ratios[d < -1e-15]
            tmin = lo.max() if lo.size else 0.0
            tmax = hi.min() if hi.size else 0.0
            if tmax - tmin < 1e-15:
                continue
            p = p + rng.uniform(tmin, tmax) * d
            np.clip(p, 0.0, None, out=p)
        out.append(p.reshape(m, n).copy())
    return out


# ---------------------------------------------------------------------------
# Frank-Wolfe for finite orders


def _isometry(X, Y):
    """The coupling of an isomorphism of X onto Y read off the canonical
    forms, or None when a test tells the spaces apart, cheapest first:
    sizes, sorted masses (within TAU_MASS), all n^2 distances sorted
    (within TAU_METRIC; sorting is 1-Lipschitz, so a zero-distortion
    isomorphism passes), the class keys, and the masses of the points that
    the two canonical leaf orders pair position by position."""
    if X.n != Y.n or np.abs(np.sort(X.mu) - np.sort(Y.mu)).max() > TAU_MASS:
        return None
    if (np.abs(np.sort(X.u, axis=None) - np.sort(Y.u, axis=None)).max()
            > TAU_METRIC):
        return None
    (kx, a), (ky, b) = X.canonical, Y.canonical
    if kx != ky or np.abs(X.mu[a] - Y.mu[b]).max() > TAU_MASS:
        return None
    plan = np.zeros((X.n, Y.n))
    plan[a, b] = X.mu[a]
    return plan


def ugw_fw(X, Y, p, cfg=None, cost="ultra"):
    """Frank-Wolfe minimization of the p-th power of the coupling
    distortion.  Multistart: the first initial coupling is the product
    coupling, the rest come from the hit-and-run sampler.  Restarts are
    ranked by the distortion tracked along the iterations; the returned
    value is dis_ult (dis_classical in classical mode) of the best coupling,
    an upper bound on the distance (on twice the classical GW distance in
    classical mode).  stats["restarts"] holds, per restart, its start kind
    ("product" or "hitrun"), the steps taken, the linear minimisation
    calls and the last Frank-Wolfe gap.

    Where the merge trees hold both spaces, an isomorphism is looked for
    first (_isometry).  When its coupling has distortion exactly 0.0, the
    global minimum, it is returned without any restart: the trace is
    [0.0] and the one stats entry has start kind "isometry", no steps, no
    linear minimisation calls and gap None.  Every other pair runs the
    restarts as above."""
    if p == np.inf:
        raise ValueError("use ugw_inf_exact for the order-infinity distance")
    if not p >= 1:
        raise ValueError("order p must be >= 1")
    if cfg is None:
        cfg = FwConfig()
    if cost not in ("ultra", "classical"):
        raise ValueError("cost must be 'ultra' or 'classical'")
    ultra = cost == "ultra"
    # the merge trees hold every off-diagonal distance of a space without
    # negative, asymmetric or triangle faults (ultrametric and
    # ultra-dissimilarity spaces); any other pair, say two metric spaces
    # under the classical cost, iterates with the chunked pass
    trees = not (X.faults or Y.faults)
    dis = dis_ult if ultra else dis_classical
    method = "ugw-fw" if ultra else "gw-fw"
    # an isomorphism whose distortion is exactly 0 is a global minimum,
    # so no restart runs
    plan = _isometry(X, Y) if trees else None
    if plan is not None and dis(X, Y, plan, p) == 0.0:
        return GwResult(value=0.0, method=method, coupling=plan, trace=[0.0],
                        stats={"restarts": [{"start": "isometry",
                                             "iterations": 0, "lmo_calls": 0,
                                             "gap": None}]})
    op = (TreeDistortion if trees else Distortion)(X, Y, p, ultra)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    # one LP model for every linear minimisation step of every restart
    lp = TransportLP(X.mu, Y.mu)
    best_val = np.inf
    best_plan = None
    trace, runs = [], []
    for r in range(cfg.restarts):
        if r == 0:
            plan = product_coupling(X.mu, Y.mu)
        else:
            rng = np.random.Generator(np.random.Philox(seeds[r]))
            plan = hitrun_couplings(X.mu, Y.mu, 1, steps=cfg.hitrun_steps,
                                    rng=rng)[0]
        # the plan and its image dplan = D(plan) are updated together
        dplan = op(plan)
        steps = 0
        for it in range(cfg.iterations):
            g = 2.0 * dplan
            _, vert = exact_ot(g, X.mu, Y.mu, p_mode="sum", lp=lp)
            d = vert - plan
            gap = -float((g * d).sum())
            if gap <= cfg.tol_stationarity:
                break
            dd = op(vert) - dplan
            if cfg.step_rule == "harmonic":
                gamma = 2.0 / (it + 2.0)
            else:
                # dis^p along plan + gamma*d is the quadratic
                # a*gamma^2 + b*gamma + const
                a = float((dd * d).sum())
                b = -gap
                if a > 1e-300:
                    gamma = min(1.0, max(0.0, -b / (2.0 * a)))
                else:
                    gamma = 1.0 if a + b < 0 else 0.0
                if gamma == 0.0:
                    break
            plan = plan + gamma * d
            dplan = dplan + gamma * dd
            steps += 1
        runs.append({"start": "product" if r == 0 else "hitrun",
                     "iterations": steps, "lmo_calls": it + 1, "gap": gap})
        val = float((dplan * plan).sum())
        trace.append(max(val, 0.0) ** (1.0 / p))
        if val < best_val:
            best_val = val
            best_plan = plan
    # the value is recomputed from the returned coupling, so it is exactly
    # what dis_ult / dis_classical give for it
    return GwResult(value=dis(X, Y, best_plan, p), method=method,
                    coupling=best_plan, trace=trace,
                    stats={"restarts": runs})


def dgw_fw(X, Y, p, cfg=None):
    """Classical GW distance upper bound: half the infimized classical
    distortion (the classical definition carries the 1/2; the ultrametric
    one does not)."""
    res = ugw_fw(X, Y, p, cfg=cfg, cost="classical")
    return GwResult(value=0.5 * res.value, method="dgw-fw",
                    coupling=res.coupling, trace=res.trace, stats=res.stats)


# ---------------------------------------------------------------------------
# brute-force solver for Sturm's ultrametric GW


def _amalgam(X, Y, phi):
    """Common ultrametric space on X | (Y minus the image of phi), where
    phi maps a subset A of X isometrically into Y.  Distances follow the
    amalgamation rules: X and Y keep their own distances, points of A are
    identified with their images, and X\\A-to-Y distances go through the
    cheapest anchor in A."""
    a_idx = [i for i, y in enumerate(phi) if y is not None]
    used = {phi[i] for i in a_idx}
    rest = [j for j in range(Y.n) if j not in used]
    nz = X.n + len(rest)
    u = np.zeros((nz, nz))
    u[:X.n, :X.n] = X.u
    for rj, j in enumerate(rest):
        col = X.n + rj
        for i in range(X.n):
            if phi[i] is not None:
                d = Y.u[phi[i], j]
            else:
                d = min(max(X.u[i, a], Y.u[phi[a], j]) for a in a_idx)
            u[i, col] = u[col, i] = d
    yy = np.triu(Y.u[np.ix_(rest, rest)], 1)  # Y's upper triangle, mirrored
    u[X.n:, X.n:] = yy + yy.T
    alpha, beta = np.zeros(nz), np.zeros(nz)
    alpha[:X.n] = X.mu
    beta[a_idx] = Y.mu[[phi[i] for i in a_idx]]
    beta[X.n:] = Y.mu[rest]
    ids = ["x%d" % i for i in range(X.n)] + ["y%d" % j for j in rest]
    space = UmSpace(ids, u, np.full(nz, 1.0 / nz))
    return space, alpha, beta


def usturm_bruteforce(X, Y, p, max_n=7):
    """Sturm's ultrametric GW distance by enumeration of maximal partial
    isometries A -> Y and exact Wasserstein evaluation on the amalgam
    space.  Exponential; refuses inputs beyond max_n points per side."""
    if not p >= 1:
        raise ValueError("order p must be >= 1")
    if X.n > max_n or Y.n > max_n:
        raise SizeCapError(
            "usturm_bruteforce is exponential; %d/%d points exceed the cap %d"
            % (X.n, Y.n, max_n))
    _require_ultrametric(X, Y)
    best = [np.inf, None]

    def consistent(phi, i, j):
        return all(yk is None or abs(X.u[i, k] - Y.u[j, yk]) <= TAU_METRIC
                   for k, yk in enumerate(phi))

    def extendable(phi):
        used = {y for y in phi if y is not None}
        return any(consistent(phi, i, j) for i, yi in enumerate(phi)
                   if yi is None for j in range(Y.n) if j not in used)

    phi = [None] * X.n

    def dfs(i):
        if i == X.n:
            if all(y is None for y in phi) or extendable(phi):
                return
            space, alpha, beta = _amalgam(X, Y, phi)
            val = w_ultrametric(space, alpha, beta, p)
            if val < best[0]:
                best[0] = val
                best[1] = list(phi)
            return
        dfs(i + 1)  # leave x_i out of A
        used = {y for y in phi if y is not None}
        for j in range(Y.n):
            if j not in used and consistent(phi, i, j):
                phi[i] = j
                dfs(i + 1)
                phi[i] = None

    dfs(0)
    mapping = [(i, y) for i, y in enumerate(best[1]) if y is not None]
    return GwResult(value=float(best[0]), method="usturm", matching=mapping)
