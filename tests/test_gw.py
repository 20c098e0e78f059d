import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

import cost_tensor as oracle
from conftest import (delta_hat2, one_point, rand_tree, rand_ultrametric,
                      tied_ultrametric)
from ultragw import (FwConfig, GenSpec, SizeCapError, UmSpace,
                     canonical_signature, dgw_fw, diam_p, dis_classical,
                     dis_ult, gen_ultrametric, gw, hitrun_couplings, perturb,
                     quotient, snowflake, spectrum, tree_shape_space,
                     ugh_exact, ugw_fw, ugw_inf_exact, uslb,
                     usturm_bruteforce, validate)
from ultragw.spaces import TAU_METRIC, dedup_sorted
from ultragw.transport import check_coupling

CFG = FwConfig(restarts=3, iterations=200, seed=7)


def _rand_mass(rng, n):
    m = rng.dirichlet(np.ones(n))
    m = (m + 0.05) / (1 + 0.05 * n)
    return m / m.sum()


# ---------------------------------------------------------------------------
# distortion functionals


def test_dis_ult_identity_coupling(rng):
    x = rand_ultrametric(rng, 5)
    plan = np.diag(x.mu)
    for p in (1, 2, np.inf):
        assert dis_ult(x, x, plan, p) == 0.0


def test_dis_ult_two_point_value():
    a1, a2 = 0.3, 0.7
    x = delta_hat2(1.0, (a1, a2))
    y = delta_hat2(2.0, (a1, a2))
    plan = np.diag([a1, a2])
    assert dis_ult(x, y, plan, 1) == pytest.approx(2 * a1 * a2 * 2.0)


def test_dis_ult_one_point(rng):
    x = rand_ultrametric(rng, 6)
    plan = x.mu.reshape(-1, 1)
    for p in (1, 2, np.inf):
        assert dis_ult(x, one_point(), plan, p) == pytest.approx(diam_p(x, p))


def test_dis_ult_rejects_bad_coupling(rng):
    x = rand_ultrametric(rng, 4)
    with pytest.raises(ValueError):
        dis_ult(x, x, np.full((4, 4), 1 / 16), 1)


def test_dis_classical_two_point_with_half():
    a1, a2 = 0.4, 0.6
    x = delta_hat2(1.0, (a1, a2))
    y = delta_hat2(2.5, (a1, a2))
    plan = np.diag([a1, a2])
    assert 0.5 * dis_classical(x, y, plan, 1) == pytest.approx(
        a1 * a2 * abs(1.0 - 2.5))


def test_dis_classical_equals_dis_ult_on_unit_spaces(rng):
    # constant-1 spaces: |a-b| and the ultrametric cost coincide pairwise
    def const1(n):
        u = np.ones((n, n)) - np.eye(n)
        return UmSpace([str(i) for i in range(n)], u, np.full(n, 1 / n))

    x, y = const1(3), const1(4)
    for _ in range(10):
        plan = hitrun_couplings(x.mu, y.mu, 1, steps=4,
                                seed=int(rng.integers(10 ** 6)))[0]
        for p in (1, 2):
            assert dis_classical(x, y, plan, p) == pytest.approx(
                dis_ult(x, y, plan, p), abs=1e-12)


def test_snowflake_at_coupling_level(rng):
    x = rand_ultrametric(rng, 5)
    y = rand_ultrametric(rng, 4)
    for p in (2, 3):
        for _ in range(5):
            plan = hitrun_couplings(x.mu, y.mu, 1, steps=4,
                                    seed=int(rng.integers(10 ** 6)))[0]
            lhs = dis_ult(x, y, plan, p) ** p
            rhs = dis_ult(snowflake(x, p), snowflake(y, p), plan, 1)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def _small_tree_shape(rng):
    """A treegram (positive diagonal) of at most 8 points: the tree-shape
    space of a random tree."""
    while True:
        x = tree_shape_space(rand_tree(rng))
        if x.n <= 8:
            return x


def _operator_cases(rng):
    """(x, y, plans): random spaces, spaces with exact ties and with ties
    only within TAU_METRIC, a space and a perturbed copy, and treegrams,
    each with dense hit-and-run plans, LMO vertices, the product coupling
    and a difference of two couplings (zero total mass)."""
    for k in range(15):
        if k % 5 == 3:
            x = (rand_ultrametric, tied_ultrametric)[k % 2](
                rng, int(rng.integers(2, 7)))
            y = perturb(x, spectrum(x)[-2], seed=k)
        elif k % 5 == 4:
            x, y = _small_tree_shape(rng), _small_tree_shape(rng)
        else:
            make = (rand_ultrametric, tied_ultrametric,
                    lambda r, n: tied_ultrametric(r, n, 0.5 * TAU_METRIC))[k % 5]
            x, y = (make(rng, int(rng.integers(2, 7))) for _ in range(2))
        plans = hitrun_couplings(x.mu, y.mu, 2, steps=5,
                                 seed=int(rng.integers(10 ** 6)))
        plans += [gw.exact_ot(rng.uniform(0, 1, size=(x.n, y.n)), x.mu,
                              y.mu)[1] for _ in range(2)]
        plans += [np.outer(x.mu, y.mu), plans[0] - plans[2]]
        yield x, y, plans


def _snapped(x, y):
    """x and y with every distance moved to the level of the merged
    spectrum it sits at, as the tree form of the operator reads them."""
    grid = np.array(dedup_sorted(np.maximum(spectrum(x) + spectrum(y), 0.0)))
    return [UmSpace(s.ids, grid[np.searchsorted(grid + TAU_METRIC, s.u)],
                    s.mu) for s in (x, y)]


@pytest.mark.parametrize("chunk", [gw._CHUNK_VALUES, 5])
def test_distortion_operator_matches_tensor_oracle(rng, monkeypatch, chunk):
    # chunk 5 takes one plan cell per pass, or one pair of cells at p=inf;
    # the tree form cancels four terms per cluster pair, so it is checked
    # relative to the largest entry
    monkeypatch.setattr(gw, "_CHUNK_VALUES", chunk)
    for k, (x, y, plans) in enumerate(_operator_cases(rng)):
        sx, sy = _snapped(x, y)
        # only the jittered pairs have distances off the merged spectrum
        assert (np.array_equal(sx.u, x.u) and np.array_equal(sy.u, y.u)) \
            == (k % 5 != 2)
        for ultra, p in itertools.product((True, False),
                                          (1, 1.5, 2, 3, np.inf)):
            t = oracle.cost_tensor(x, y, p, ultra)
            op = gw.Distortion(x, y, p, ultra)
            if p != np.inf:
                tree = gw.TreeDistortion(x, y, p, ultra)
                ts = oracle.cost_tensor(sx, sy, p, ultra)
            dis = dis_ult if ultra else dis_classical
            for plan in plans:
                # a zero-mass difference cancels in either form, so its
                # scale is the image of |plan|
                signed = plan.min() < 0
                want = oracle.apply(t, plan)
                np.testing.assert_allclose(
                    op(plan), want, rtol=1e-12,
                    atol=1e-12 * oracle.apply(t, np.abs(plan)).max()
                    if signed else 0)
                if p != np.inf:
                    assert (np.abs(tree(plan) - oracle.apply(ts, plan)).max()
                            <= 1e-12 * oracle.apply(ts, np.abs(plan)).max())
                if signed:
                    continue
                if p == np.inf:
                    assert op.sup(plan) == oracle.sup(t, plan)
                    assert dis(x, y, plan, p) == oracle.sup(t, plan)
                else:
                    assert dis(x, y, plan, p) == pytest.approx(
                        oracle.value(t, plan) ** (1 / p), rel=1e-12)


def test_distortion_memory_stays_below_the_cost_tensor():
    rng = np.random.default_rng(40)
    x, y = rand_ultrametric(rng, 40), rand_ultrametric(rng, 40)
    plan = hitrun_couplings(x.mu, y.mu, 1, seed=1)[0]
    tensor_bytes = 8 * (x.n * y.n) ** 2  # 20.5 MB
    for run in (lambda: ugw_fw(x, y, 2, FwConfig(restarts=2, seed=2)),
                lambda: dis_ult(x, y, plan, 2)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tensor_bytes / 4


# ---------------------------------------------------------------------------
# exact order-infinity solvers


def test_ugw_inf_relabel_invariance(rng):
    x = rand_ultrametric(rng, 6)
    perm = rng.permutation(6)
    y = UmSpace([x.ids[i] + "_r" for i in perm], x.u[np.ix_(perm, perm)],
                x.mu[perm])
    assert ugw_inf_exact(x, y).value == 0.0


def test_ugw_inf_diameter_gap(rng):
    x = rand_ultrametric(rng, 5, scale=0.5)
    y = rand_ultrametric(rng, 6, scale=2.0)
    if diam_p(x, np.inf) >= diam_p(y, np.inf):
        x, y = y, x
    dy = max(diam_p(x, np.inf), diam_p(y, np.inf))
    assert ugw_inf_exact(x, y).value == pytest.approx(dy, abs=1e-12)
    assert ugh_exact(x, y) == pytest.approx(dy, abs=1e-12)


def test_ugw_inf_two_point_family():
    assert ugw_inf_exact(delta_hat2(1.0), delta_hat2(2.0)).value == 2.0


def test_ugh_leq_ugw_inf(rng):
    for _ in range(100):
        x = rand_ultrametric(rng, int(rng.integers(2, 6)))
        y = rand_ultrametric(rng, int(rng.integers(2, 6)))
        assert ugh_exact(x, y) <= ugw_inf_exact(x, y).value + 1e-12


def test_ugw_inf_rejects_dissimilarity():
    bad = UmSpace(["a", "b"], np.array([[0.5, 2.0], [2.0, 0.0]]),
                  np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        ugw_inf_exact(bad, delta_hat2(1.0))


def test_canonical_signature_mass_sensitivity():
    x = delta_hat2(1.0, (0.5, 0.5))
    y = delta_hat2(1.0, (0.25, 0.75))
    assert canonical_signature(x) != canonical_signature(y)
    assert (canonical_signature(x, with_mass=False)
            == canonical_signature(y, with_mass=False))
    assert ugh_exact(x, y) == 0.0
    assert ugw_inf_exact(x, y).value == 1.0


def test_ugw_inf_matching_certificate(rng):
    pairs = [(rand_ultrametric(rng, 5), rand_ultrametric(rng, 5))]
    # tied spaces moved within the tolerance, some pairs relabelled
    for n in (6, 12, 30):
        for _ in range(5):
            x = tied_ultrametric(rng, n, jitter=0.9 * TAU_METRIC)
            y = tied_ultrametric(rng, n, jitter=0.9 * TAU_METRIC)
            if rng.random() < 0.5:
                perm = rng.permutation(n)
                noise = np.triu(rng.uniform(0, 0.9 * TAU_METRIC, (n, n)), 1)
                u = np.round(x.u * 4) / 4 + noise + noise.T
                y = UmSpace(x.ids, u[np.ix_(perm, perm)], x.mu[perm])
            pairs.append((x, y))
    for x, y in pairs:
        res = ugw_inf_exact(x, y)
        # the certificate pairs the blocks of the two quotients at the
        # level, sorted by X block
        qx, qy = quotient(x, res.level), quotient(y, res.level)
        assert [a for a, _ in res.matching] == sorted(qx.blocks)
        assert sorted(b for _, b in res.matching) == sorted(qy.blocks)


def test_ugw_inf_matching_agrees_with_quotients_on_tolerance_chain():
    # X's merge at 1 + 8e-10 lies within TAU_METRIC of its own merge at 1,
    # but more than TAU_METRIC above the shared level 1 - 5e-10, so the
    # quotient of X at that level keeps (2,) and (3, 4) apart
    def space(pairs):
        u = np.full((5, 5), 2.0)
        for (i, j), h in pairs.items():
            u[i, j] = u[j, i] = h
        np.fill_diagonal(u, 0.0)
        return UmSpace(list("abcde"), u, np.full(5, 0.2))

    a, b = 1 + 8e-10, 1 - 5e-10
    x = space({(3, 4): 0.7, (2, 3): a, (2, 4): a, (0, 1): 1.0})
    y = space({(0, 1): b, (2, 3): b, (2, 4): b, (3, 4): b})
    assert validate(x).ok and validate(y).ok
    assert quotient(x, b).blocks == ((0, 1), (2,), (3, 4))
    res = ugw_inf_exact(x, y)
    assert res.value == 2.0
    assert res.matching == [((0, 1, 2, 3, 4), (0, 1, 2, 3, 4))]


def test_canonical_signature_reexported():
    assert gw.canonical_signature is canonical_signature


def _check_matching(res, x, y):
    """Blocks partition both sides, pair equal masses, sorted by X block."""
    xs = [a for a, _ in res.matching]
    assert xs == sorted(xs)
    for k, space in enumerate((x, y)):
        pts = sorted(i for pair in res.matching for i in pair[k])
        assert pts == list(range(space.n))
    for a, b in res.matching:
        assert abs(x.mu[list(a)].sum() - y.mu[list(b)].sum()) <= 1e-9


def test_ugw_inf_near_tie_regression():
    # distances 2e-13 apart are one level for TAU_METRIC, so the quotients
    # agree at every level
    def space(h):
        u = np.array([[0, h, 1], [h, 0, 1], [1, 1, 0.]])
        return UmSpace(list("abc"), u, np.full(3, 1 / 3))

    h = 0.3000000005
    x, y = space(h), space(h + 2e-13)
    assert ugw_inf_exact(x, y).value == 0.0
    assert ugh_exact(x, y) == 0.0


def test_ugw_inf_relabel_and_perturb_large(rng):
    big = gen_ultrametric(GenSpec(k=3, samples_per_block=200, subsample=200,
                                  seed=4))
    # random masses: the matching has to pair blocks of equal mass
    for x in (big, rand_ultrametric(rng, 40), tied_ultrametric(rng, 40)):
        perm = rng.permutation(x.n)
        y = UmSpace(["r%d" % j for j in range(x.n)],
                    x.u[np.ix_(perm, perm)], x.mu[perm])
        res = ugw_inf_exact(x, y)
        assert res.value == 0.0 and ugh_exact(x, y) == 0.0
        _check_matching(res, x, y)
        t = 0.25 * diam_p(x, np.inf)
        z = perturb(x, t, seed=5)
        res = ugw_inf_exact(x, z)
        assert res.value <= t + TAU_METRIC
        _check_matching(res, x, z)


# ---------------------------------------------------------------------------
# hit-and-run


def test_hitrun_degenerate():
    out = hitrun_couplings(np.array([1.0]), np.full(3, 1 / 3), 4, seed=0)
    assert len(out) == 4
    assert all(np.allclose(p, np.full((1, 3), 1 / 3)) for p in out)


def test_hitrun_outputs_are_couplings(rng):
    from ultragw import check_coupling
    for _ in range(100):
        m, n = rng.integers(2, 6, size=2)
        mu, nu = _rand_mass(rng, m), _rand_mass(rng, n)
        for plan in hitrun_couplings(mu, nu, 3, steps=3,
                                     seed=int(rng.integers(10 ** 6))):
            check_coupling(plan, mu, nu)


def test_hitrun_uniform_on_segment():
    # 2x2 uniform marginals: one free parameter, uniform on [0, 1/2]
    mu = np.array([0.5, 0.5])
    samples = hitrun_couplings(mu, mu, 10 ** 5, steps=1, seed=42)
    free = np.array([p[0, 0] for p in samples])
    stat = kstest(free, "uniform", args=(0, 0.5)).statistic
    assert stat < 0.01


def test_hitrun_directions_lie_in_kernel(rng, monkeypatch):
    drawn = []

    def recording(*args):
        d = kernel_direction(*args)
        drawn.append(d)
        return d

    kernel_direction = gw._kernel_direction
    monkeypatch.setattr(gw, "_kernel_direction", recording)
    for m, n in ((2, 2), (2, 5), (4, 3), (6, 6)):
        mu, nu = _rand_mass(rng, m), _rand_mass(rng, n)
        drawn.clear()
        hitrun_couplings(mu, nu, 5, steps=4, seed=int(rng.integers(10 ** 6)))
        assert len(drawn) == 20
        for d in drawn:
            d = d.reshape(m, n)
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(d.sum(axis=1)).max() <= 1e-12
            assert np.abs(d.sum(axis=0)).max() <= 1e-12


def test_hitrun_direction_law_is_uniform_on_kernel_sphere():
    # second moment of a uniform unit vector of a k-dimensional subspace is
    # its orthogonal projector over k; here k = (m-1)(n-1) = 4
    from ultragw.transport import marginal_constraints
    m, n = 3, 3
    a = marginal_constraints(m, n).toarray()
    proj = np.eye(m * n) - np.linalg.pinv(a) @ a
    rng = np.random.default_rng(5)
    ds = np.array([gw._kernel_direction(rng, m, n) for _ in range(20000)])
    assert ds.T @ ds / len(ds) == pytest.approx(proj / 4, abs=0.01)


# ---------------------------------------------------------------------------
# Frank-Wolfe


def test_fw_two_point():
    res = ugw_fw(delta_hat2(1.0), delta_hat2(2.0), 1, CFG)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    # stationarity invariant: reported value matches its coupling
    assert dis_ult(delta_hat2(1.0), delta_hat2(2.0), res.coupling, 1) \
        == pytest.approx(res.value, abs=1e-10)


def test_fw_value_is_distortion_of_returned_coupling(rng):
    cfg = FwConfig(restarts=3, iterations=100, seed=11)
    for _ in range(6):
        x = rand_ultrametric(rng, int(rng.integers(2, 8)))
        y = tied_ultrametric(rng, int(rng.integers(2, 8)))
        for p in (1, 2, 3):
            res = ugw_fw(x, y, p, cfg)
            assert res.value == dis_ult(x, y, res.coupling, p)
            res = ugw_fw(x, y, p, cfg, cost="classical")
            assert res.value == dis_classical(x, y, res.coupling, p)
            res = dgw_fw(x, y, p, cfg)
            assert res.value == 0.5 * dis_classical(x, y, res.coupling, p)


def _record_lmo(monkeypatch):
    """Record (cost, value, plan, lp, iterate) of every exact_ot call gw
    makes; `iterate` is the calling solver's current coupling, its local
    `plan`, which the cost is the gradient at."""
    calls = []
    exact_ot = gw.exact_ot

    def recording(cost, mu, nu, p_mode="sum", lp=None):
        out = exact_ot(cost, mu, nu, p_mode=p_mode, lp=lp)
        iterate = sys._getframe(1).f_locals.get("plan")
        calls.append((np.array(cost), out[0], out[1], lp, iterate))
        return out

    monkeypatch.setattr(gw, "exact_ot", recording)
    return calls


def _euclidean(rng, n):
    """Distances of n random points of the plane, uniform masses: a metric
    space that is not ultrametric."""
    from scipy.spatial.distance import pdist, squareform
    u = squareform(pdist(rng.uniform(0, 1, size=(n, 2))))
    return UmSpace(["e%d" % i for i in range(n)], u, np.full(n, 1 / n))


def test_fw_lmo_gradients_match_tensor_oracle(rng, monkeypatch):
    # every gradient handed to the LMO is 2 D(plan) of the tensor oracle;
    # the solver updates D(plan) along each step, so the check is relative
    # to the gradient's largest entry.  The last two pairs are Euclidean
    # distance matrices, which no merge tree holds
    calls = _record_lmo(monkeypatch)
    for k in range(8):
        if k < 6:
            x = rand_ultrametric(rng, int(rng.integers(3, 8)))
            y = tied_ultrametric(rng, int(rng.integers(3, 8)))
        else:
            x, y = (_euclidean(rng, int(rng.integers(3, 8))) for _ in "xy")
        p, ultra = (1, 2, 1.5)[k % 3], k % 2 == 0
        step = ("exact_line_search", "harmonic")[k % 4 == 3]
        calls.clear()
        ugw_fw(x, y, p, FwConfig(restarts=3, iterations=60, seed=k,
                                 step_rule=step),
               cost="ultra" if ultra else "classical")
        t = oracle.cost_tensor(x, y, p, ultra)
        assert len(calls) > 3
        for cost, _, _, _, plan in calls:
            want = 2 * oracle.apply(t, plan)
            assert np.abs(cost - want).max() <= 1e-12 * np.abs(want).max()


def test_fw_lmo_vertices_match_linprog(rng, monkeypatch):
    from scipy.optimize import linprog

    from ultragw.transport import marginal_constraints
    # at its default tolerances linprog's optimum was up to 7e-8 relative
    # above the exact rational one on these inputs
    TIGHT = {"primal_feasibility_tolerance": 1e-10,
             "dual_feasibility_tolerance": 1e-10}
    calls = _record_lmo(monkeypatch)
    for k in range(6):
        x = rand_ultrametric(rng, int(rng.integers(3, 8)))
        y = tied_ultrametric(rng, int(rng.integers(3, 8)))
        calls.clear()
        ugw_fw(x, y, 1 + k % 2, FwConfig(restarts=3, iterations=50, seed=k),
               cost=("ultra", "classical")[k % 3 == 2])
        # one model serves every linear minimisation step of the call
        assert calls and calls[0][3] is not None
        assert all(c[3] is calls[0][3] for c in calls)
        a_eq = marginal_constraints(x.n, y.n)
        b_eq = np.concatenate([x.mu, y.mu])
        for cost, val, _, _, _ in calls:
            ref = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq,
                          method="highs", options=TIGHT).fun
            assert abs(val - ref) <= 1e-9 * abs(ref) + 1e-15


def _mixture_ultrametric(rng, n, k):
    """Single-linkage ultrametric of n points from k Gaussian clusters
    whose centres spread over [0, 10k]^2, with random masses."""
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import pdist, squareform
    centres = rng.uniform(0.0, 10.0 * k, size=(k, 2))
    pts = (centres[np.sort(rng.integers(0, k, size=n))]
           + rng.standard_normal((n, 2)))
    u = squareform(cophenet(linkage(pdist(pts), method="single")))
    mu = rng.dirichlet(np.ones(n)) + 0.05
    return UmSpace(["p%d" % i for i in range(n)], u, mu / mu.sum())


def test_fw_warm_lmo_vertices_are_couplings(monkeypatch):
    # seeded pairs on which a warm-started LMO solve ends with a status of
    # unknown when the costs are not mapped onto [0, 1], or on a vertex
    # with an entry near -1e-7 at HiGHS's default primal tolerance
    calls = _record_lmo(monkeypatch)
    for seed, cost in ((114, "ultra"), (1548, "classical"), (1630, "ultra")):
        rng = np.random.default_rng(seed)
        x = _mixture_ultrametric(rng, 12 + seed % 9, 2 + seed % 2)
        y = _mixture_ultrametric(rng, 14 + seed % 13, 3 - seed % 2)
        res = ugw_fw(x, y, 2, FwConfig(restarts=3, seed=seed), cost=cost)
        check_coupling(res.coupling, x.mu, y.mu, tol=1e-10)
    assert min(plan.min() for _, _, plan, _, _ in calls) >= -1e-10


def test_fw_runs_the_chunked_pass_once_for_the_value(rng, monkeypatch):
    # Frank-Wolfe iterates with the tree form; the chunked operator only
    # evaluates the returned coupling
    seen = []
    chunked = gw.Distortion.__call__

    def counting(self, plan):
        seen.append(np.array(plan))
        return chunked(self, plan)

    monkeypatch.setattr(gw.Distortion, "__call__", counting)
    x, y = rand_ultrametric(rng, 7), tied_ultrametric(rng, 6)
    for solve in (lambda: ugw_fw(x, y, 2, CFG),
                  lambda: ugw_fw(x, y, 1, CFG, cost="classical"),
                  lambda: dgw_fw(x, y, 1.5, CFG)):
        seen.clear()
        res = solve()
        assert len(seen) == 1 and np.array_equal(seen[0], res.coupling)


def test_fw_stats_count_every_restart(rng, monkeypatch):
    calls = _record_lmo(monkeypatch)
    x, y = rand_ultrametric(rng, 6), tied_ultrametric(rng, 7)
    for cfg in (FwConfig(restarts=4, seed=3),
                FwConfig(restarts=3, iterations=2, seed=4),
                FwConfig(restarts=2, step_rule="harmonic", iterations=30)):
        for solve in (ugw_fw, dgw_fw):
            calls.clear()
            runs = solve(x, y, 2, cfg).stats["restarts"]
            assert [r["start"] for r in runs] == (
                ["product"] + ["hitrun"] * (cfg.restarts - 1))
            assert sum(r["lmo_calls"] for r in runs) == len(calls)
            # a restart stops one step short of its last LMO call, or
            # takes every step it is allowed
            for r in runs:
                assert r["iterations"] in (r["lmo_calls"] - 1, cfg.iterations)
                assert r["lmo_calls"] <= cfg.iterations
                assert isinstance(r["gap"], float)


def test_fw_relabelled_pair_reports_zero(rng):
    # an isometric coupling reports exactly 0.0, with no rounding residue
    # (at p = 2 a residue of 1e-18 in the p-th power would read 1e-9).
    # Frank-Wolfe may still stop at a local minimum on a relabelled pair,
    # which sits far above any residue
    zeros = 0
    for k in range(8):
        x = (rand_ultrametric, tied_ultrametric)[k % 2](
            rng, int(rng.integers(3, 16)))
        perm = rng.permutation(x.n)
        y = UmSpace([x.ids[i] for i in perm], x.u[np.ix_(perm, perm)],
                    x.mu[perm])
        assert dis_ult(x, y, np.diag(x.mu)[:, perm], 2) == 0.0
        value = ugw_fw(x, y, 2, FwConfig(restarts=10, seed=k)).value
        assert value == 0.0 or value > 1e-6
        zeros += value == 0.0
    assert zeros >= 6


def test_fw_one_point(rng):
    x = rand_ultrametric(rng, 6)
    for p in (1, 2):
        res = ugw_fw(x, one_point(), p, CFG)
        assert res.value == diam_p(x, p)


def test_fw_dominates_uslb(rng):
    for _ in range(10):
        x = rand_ultrametric(rng, int(rng.integers(2, 6)))
        y = rand_ultrametric(rng, int(rng.integers(2, 6)))
        res = ugw_fw(x, y, 1, FwConfig(restarts=2, iterations=100, seed=1))
        assert res.value >= uslb(x, y, 1) - 1e-9


def test_fw_harmonic_step(rng):
    x, y = delta_hat2(1.0), delta_hat2(2.0)
    cfg = FwConfig(restarts=3, iterations=400, step_rule="harmonic", seed=3)
    assert ugw_fw(x, y, 1, cfg).value == pytest.approx(1.0, abs=1e-3)


def test_fw_rejects_bad_args(rng):
    x = rand_ultrametric(rng, 3)
    with pytest.raises(ValueError):
        ugw_fw(x, x, np.inf, CFG)
    with pytest.raises(ValueError):
        FwConfig(restarts=0)
    with pytest.raises(ValueError):
        FwConfig(step_rule="newton")


def test_dgw_fw_halves_classical(rng):
    x, y = delta_hat2(1.0), delta_hat2(2.5)
    res = dgw_fw(x, y, 1, CFG)
    assert res.value == pytest.approx(0.25 * 1.5, abs=1e-6)


def test_fw_gradient_matches_finite_differences(rng):
    for _ in range(5):
        x = rand_ultrametric(rng, 4)
        y = rand_ultrametric(rng, 3)
        plan = hitrun_couplings(x.mu, y.mu, 1, steps=5,
                                seed=int(rng.integers(10 ** 6)))[0]
        for p in (1, 2):
            t = oracle.cost_tensor(x, y, p)
            grad = 2 * gw.Distortion(x, y, p, ultra=True)(plan)

            def val(q):
                return oracle.value(t, q)

            h = 1e-6
            for i in range(x.n):
                for j in range(y.n):
                    e = np.zeros_like(plan)
                    e[i, j] = h
                    fd = (val(plan + e) - val(plan - e)) / (2 * h)
                    assert abs(fd - grad[i, j]) <= 1e-5 * max(1, abs(grad[i, j]))


# ---------------------------------------------------------------------------
# brute-force Sturm


def test_usturm_two_point_family():
    for n in range(1, 6):
        x = delta_hat2(1.0)
        y = delta_hat2(1.0 + 1.0 / n)
        for p in (1, 2, np.inf):
            expect = 2.0 ** (-1.0 / p) * (1 + 1.0 / n) if p != np.inf \
                else 1 + 1.0 / n
            assert usturm_bruteforce(x, y, p).value == pytest.approx(
                expect, abs=1e-9)


def test_usturm_one_point_family():
    for n in (2, 3, 5):
        mu = np.array([1 / (2 * n), 1 / (2 * n), 1 - 1 / n])
        u = np.ones((3, 3)) - np.eye(3)
        x = UmSpace(list("abc"), u, mu)
        assert usturm_bruteforce(x, one_point(), 1).value == pytest.approx(
            1.0 / n, abs=1e-12)


def test_usturm_inf_equals_ugw_inf(rng):
    for _ in range(10):
        x = rand_ultrametric(rng, int(rng.integers(2, 6)))
        y = rand_ultrametric(rng, int(rng.integers(2, 6)))
        assert usturm_bruteforce(x, y, np.inf).value == pytest.approx(
            ugw_inf_exact(x, y).value, abs=1e-9)


def test_usturm_size_cap(rng):
    x = rand_ultrametric(rng, 8)
    with pytest.raises(SizeCapError):
        usturm_bruteforce(x, x, 1)


def test_sturm_sandwich_two_point_family():
    # exact family values: ugw_p = 2^{-1/p} max(a,b) <= 2^{1/p} * usturm_p
    for n in (1, 2, 3):
        b = 1 + 1.0 / n
        for p in (1, 2):
            ugw = 2 ** (-1 / p) * b
            st = usturm_bruteforce(delta_hat2(1.0), delta_hat2(b), p).value
            assert ugw <= 2 ** (1 / p) * st + 1e-12


# ---------------------------------------------------------------------------
# metric axioms and the brute-force oracle


def test_ugw_inf_max_triangle(rng):
    for _ in range(30):
        x, y, z = (rand_ultrametric(rng, int(rng.integers(2, 5)))
                   for _ in range(3))
        dxy = ugw_inf_exact(x, y).value
        dyz = ugw_inf_exact(y, z).value
        dxz = ugw_inf_exact(x, z).value
        assert dxz <= max(dxy, dyz) + 1e-12
        assert dxy == ugw_inf_exact(y, x).value


def iso_weighted(a, b, tol=1e-9):
    """Brute-force weighted isomorphism test by permutation enumeration."""
    if a.n != b.n:
        return False
    for perm in itertools.permutations(range(a.n)):
        perm = list(perm)
        if np.max(np.abs(a.mu - b.mu[perm])) > tol:
            continue
        if np.max(np.abs(a.u - b.u[np.ix_(perm, perm)])) <= tol:
            return True
    return False


def ugw_inf_oracle(x, y):
    levels = dedup_sorted(sorted(spectrum(x) + spectrum(y)))
    passing = None
    for t in reversed(levels):
        if iso_weighted(quotient(x, t).quotient, quotient(y, t).quotient):
            passing = t
        else:
            break
    return passing


def test_ugw_inf_matches_permutation_oracle(rng):
    for _ in range(20):
        x = rand_ultrametric(rng, int(rng.integers(2, 6)))
        y = rand_ultrametric(rng, int(rng.integers(2, 6)))
        assert ugw_inf_exact(x, y).value == pytest.approx(
            ugw_inf_oracle(x, y), abs=1e-12)
