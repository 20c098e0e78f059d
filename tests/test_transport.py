import itertools

import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from conftest import (delta_hat2, rand_measure, rand_ultrametric,
                      tied_ultrametric)
from rational_ot import ot_rational
from ultragw import (ScalarMeasure, exact_ot, from_dendrogram, lam,
                     to_dendrogram, w_halfline, w_halfline_rows,
                     w_line_classical, w_quantile, w_ultrametric)
from ultragw.spaces import TAU_MASS, TAU_METRIC
from ultragw.transport import (TransportLP, _merged_histograms,
                               check_coupling, marginal_constraints,
                               w_line_rows)


def test_lambda_examples():
    assert lam(3.0, 3.0, np.inf) == 0.0
    assert lam(1.0, 2.0, np.inf) == 2.0
    assert lam(1.0, 2.0, 1) == 1.0
    assert lam(1.0, 2.0, 2) == pytest.approx(np.sqrt(3))
    with pytest.raises(ValueError):
        lam(1.0, 2.0, 0.5)


def test_w_ultrametric_trivials(rng):
    x = rand_ultrametric(rng, 5)
    assert w_ultrametric(x, x.mu, x.mu, 1) == 0.0
    two = delta_hat2(1.0)
    assert w_ultrametric(two, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1) \
        == pytest.approx(1.0)


def test_w_ultrametric_rejects_bad_input(rng):
    x = rand_ultrametric(rng, 4)
    with pytest.raises(ValueError):
        w_ultrametric(x, x.mu, x.mu[:3], 1)
    from ultragw import UmSpace
    dis = UmSpace(["a", "b"], np.array([[1.0, 2.0], [2.0, 1.0]]),
                  np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        w_ultrametric(dis, dis.mu, dis.mu, 1)


def test_w_ultrametric_rejects_bad_masses(rng):
    x = rand_ultrametric(rng, 4)
    a = x.mu
    signs = "masses must be finite and nonnegative"
    total = "the two measures must have equal total mass"
    bad = [(np.array([np.nan, 0.5, 0.25, 0.25]), signs),
           (np.array([np.inf, 0.0, 0.0, 0.0]), signs),
           (np.array([-0.25, 0.75, 0.25, 0.25]), signs),
           (2 * a, total), (a + 2 * TAU_MASS / 4, total)]
    for b, message in bad:
        for p in (1, np.inf):
            for pair in ((a, b), (b, a)):
                with pytest.raises(ValueError, match=message):
                    w_ultrametric(x, *pair, p)
    # totals within TAU_MASS of each other are accepted
    assert w_ultrametric(x, a, a + 0.5 * TAU_MASS / 4, 1) < 1e-6


def _rand_mass(rng, n):
    m = rng.dirichlet(np.ones(n))
    m = (m + 0.05) / (1 + 0.05 * n)
    return m / m.sum()


def test_w_ultrametric_matches_exact_ot(rng):
    for _ in range(60):
        x = rand_ultrametric(rng, int(rng.integers(2, 9)))
        a, b = _rand_mass(rng, x.n), _rand_mass(rng, x.n)
        for p in (1, 2):
            val, _ = exact_ot(x.u ** p, a, b)
            assert w_ultrametric(x, a, b, p) == pytest.approx(
                max(val, 0.0) ** (1 / p), abs=1e-8)
        val, _ = exact_ot(x.u, a, b, p_mode="max")
        assert w_ultrametric(x, a, b, np.inf) == pytest.approx(val, abs=1e-8)


def test_w_ultrametric_matches_exact_ot_with_ties(rng):
    for n in (4, 9, 16, 23, 30):
        x = tied_ultrametric(rng, n)
        # ground cost: LCA heights of the merge tree, in x's point order
        lca = from_dendrogram(to_dendrogram(x))
        perm = [lca.ids.index(i) for i in x.ids]
        cost = lca.u[np.ix_(perm, perm)]
        a = _rand_mass(rng, n)
        b = _rand_mass(rng, n)
        # points 0 and 1 together carry the same mass under a and b
        b[:2] = a[:2].sum() * np.array([0.3, 0.7])
        b[2:] *= (1 - b[:2].sum()) / b[2:].sum()
        for p in (1, 2, 3):
            val, _ = exact_ot(cost ** p, a, b)
            assert w_ultrametric(x, a, b, p) == pytest.approx(
                max(val, 0.0) ** (1 / p), rel=1e-9, abs=1e-9)
        val, _ = exact_ot(cost, a, b, p_mode="max")
        assert w_ultrametric(x, a, b, np.inf) == pytest.approx(val, abs=1e-12)
        assert w_ultrametric(x, a, a, 1) == 0.0


def test_halfline_inputs_reject_non_finite():
    ok = np.array([[0.5, 1.0]])
    w = np.array([0.5, 0.5])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ScalarMeasure([0.5, bad], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            ScalarMeasure([0.5, 1.0], [0.5, bad])
    # the two batched kernels share their input checks
    for kernel in (w_halfline_rows, w_line_rows):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                kernel(ok, w, np.array([[0.5, bad]]), w, 1)
            with pytest.raises(ValueError, match="finite"):
                kernel(ok, np.array([bad, 0.5]), ok, w, np.inf)
        for p in (0.5, 0.0, np.nan):
            with pytest.raises(ValueError, match="order p"):
                kernel(ok, w, ok, w, p)


def test_w_halfline_dirac():
    a = ScalarMeasure([0.5], [1.0])
    b = ScalarMeasure([2.0], [1.0])
    for p in (1, 2, 3, np.inf):
        assert w_halfline(a, b, p) == pytest.approx(2.0)
    assert w_halfline(a, a, 1) == 0.0


def test_w_halfline_average_identity(rng):
    # order 1: half the classical line distance plus half the weighted TV
    for _ in range(40):
        a = rand_measure(rng, int(rng.integers(1, 7)))
        b = rand_measure(rng, int(rng.integers(1, 7)))
        xs, am, bm = _merged_histograms(a.x, a.m, b.x, b.m)
        tv = float(np.sum(xs * np.abs(am - bm)))
        w1 = wasserstein_distance(a.x, b.x, a.m, b.m)
        assert w_halfline(a, b, 1) == pytest.approx(0.5 * (w1 + tv), abs=1e-9)


def test_w_halfline_dirac_tv_term():
    # for two Diracs the weighted TV term is x1 + x2
    a = ScalarMeasure([0.7], [1.0])
    b = ScalarMeasure([1.9], [1.0])
    w1 = abs(0.7 - 1.9)
    assert 2 * w_halfline(a, b, 1) - w1 == pytest.approx(0.7 + 1.9)


def test_w_halfline_monotone_in_p(rng):
    for _ in range(30):
        a = rand_measure(rng, int(rng.integers(1, 6)))
        b = rand_measure(rng, int(rng.integers(1, 6)))
        vals = [w_halfline(a, b, p) for p in (1, 1.5, 2, 4, np.inf)]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-9


def _w_halfline_loop(alpha, beta, p):
    """Pairwise loop form of the half-line closed form (reference)."""
    pts = sorted([(float(x), 0, float(m)) for x, m in zip(alpha.x, alpha.m)]
                 + [(float(x), 1, float(m)) for x, m in zip(beta.x, beta.m)])
    xs, a, b = [], [], []
    for x, which, m in pts:
        if not xs or x - xs[-1] > TAU_METRIC:
            xs.append(x)
            a.append(0.0)
            b.append(0.0)
        (a if which == 0 else b)[-1] += m
    xs = np.array(xs)
    diff = np.array(a) - np.array(b)
    diff[np.abs(diff) <= TAU_MASS] = 0.0
    cum = np.cumsum(diff)
    if p == np.inf:
        best = 0.0
        for i in range(len(xs) - 1):
            if abs(cum[i]) > TAU_MASS:
                best = max(best, xs[i + 1])
        for i in range(len(xs)):
            if abs(diff[i]) > TAU_MASS:
                best = max(best, xs[i])
        return best
    xp = xs ** p
    cum[np.abs(cum) <= TAU_MASS] = 0.0
    total = float(np.sum(np.abs(cum[:-1]) * np.abs(np.diff(xp))))
    total += float(np.sum(np.abs(diff) * xp))
    return (0.5 * total) ** (1.0 / p)


def test_w_halfline_rows_matches_pairwise_loop(rng):
    # batches of row measures with shared weights; values drawn from a
    # small set so that rows tie exactly, within and across batches
    levels = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    for _ in range(30):
        ka, kb = rng.integers(1, 7, size=2)
        va = rng.choice(levels, size=(int(rng.integers(1, 5)), ka))
        vb = rng.choice(levels, size=(int(rng.integers(1, 5)), kb))
        if rng.random() < 0.5:
            va = va + rng.uniform(0.0, 1.0, size=va.shape)
        wa = _rand_mass(rng, ka)
        wb = _rand_mass(rng, kb)
        for p in (1, 1.5, 2, 3, np.inf):
            got = w_halfline_rows(va, wa, vb, wb, p)
            assert got.shape == (len(va), len(vb))
            ref = np.array([[_w_halfline_loop(ScalarMeasure(ra, wa),
                                              ScalarMeasure(rb, wb), p)
                             for rb in vb] for ra in va])
            assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


def test_w_line_rows_matches_exact_ot(rng):
    # batches with single-atom rows and values drawn from a small set, so
    # that rows tie exactly within and across batches
    levels = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    for trial in range(30):
        ka, kb = (1, 1) if trial < 3 else rng.integers(1, 7, size=2)
        va = rng.choice(levels, size=(int(rng.integers(1, 5)), ka))
        vb = rng.choice(levels, size=(int(rng.integers(1, 5)), kb))
        if rng.random() < 0.5:
            va = va + rng.uniform(0.0, 1.0, size=va.shape)
        wa = _rand_mass(rng, ka)
        wb = _rand_mass(rng, kb)
        for p in (1, 1.5, 2, 3, np.inf):
            got = w_line_rows(va, wa, vb, wb, p)
            assert got.shape == (len(va), len(vb))
            for i, ra in enumerate(va):
                for j, rb in enumerate(vb):
                    cost = np.abs(ra[:, None] - rb[None, :])
                    if p == np.inf:
                        ref = exact_ot(cost, wa, wb, p_mode="max")[0]
                    else:
                        ref = max(exact_ot(cost ** p, wa, wb)[0], 0.0) ** (
                            1 / p)
                    assert got[i, j] == pytest.approx(ref, rel=1e-9,
                                                      abs=1e-12)


def test_w_quantile_is_classical_at_q1(rng):
    for _ in range(30):
        a = rand_measure(rng, int(rng.integers(1, 7)))
        b = rand_measure(rng, int(rng.integers(1, 7)))
        assert w_quantile(a, b, 1, 1) == pytest.approx(
            wasserstein_distance(a.x, b.x, a.m, b.m), abs=1e-9)
        assert w_quantile(a, a, 2, 1) == 0.0


def test_w_quantile_matches_exact_ot(rng):
    from ultragw import lam as lam_fn
    for _ in range(25):
        a = rand_measure(rng, 7)
        b = rand_measure(rng, 7)
        for p, q in ((2, 1), (2, 2), (3, 2)):
            cost = np.array([[lam_fn(xi, yj, q) ** p for yj in b.x]
                             for xi in a.x])
            val, _ = exact_ot(cost, a.m, b.m)
            assert w_quantile(a, b, p, q) == pytest.approx(
                max(val, 0.0) ** (1 / p), abs=1e-8)


def test_w_quantile_refuses_q_above_p(rng):
    a = rand_measure(rng, 3)
    b = rand_measure(rng, 3)
    with pytest.raises(ValueError):
        w_quantile(a, b, 1, 2)
    with pytest.raises(ValueError):
        w_quantile(a, b, np.inf, 1)


def test_snowflake_wasserstein_identity(rng):
    # d_{W,p} with cost Lambda_q equals the (p/q)-distance with cost
    # Lambda_1 between the q-th-power pushforwards, raised to q
    for _ in range(20):
        a = rand_measure(rng, 5)
        b = rand_measure(rng, 5)
        for p, q in ((2, 2), (4, 2), (3, 3)):
            sa = ScalarMeasure(a.x ** q, a.m)
            sb = ScalarMeasure(b.x ** q, b.m)
            lhs = w_quantile(a, b, p, q) ** p
            rhs = w_quantile(sa, sb, p / q, 1) ** (p / q)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_exact_ot_trivials():
    val, plan = exact_ot(np.zeros((1, 1)), [1.0], [1.0])
    assert val == 0.0 and plan[0, 0] == pytest.approx(1.0)
    val, _ = exact_ot(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5],
                      [0.5, 0.5])
    assert val == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        exact_ot(np.zeros((2, 2)), [0.5, 0.5], [0.3, 0.3])


def _vertices_3x3(mu, nu):
    """All vertices of the 3x3 transportation polytope by spanning-tree
    enumeration over the bipartite constraint graph."""
    cells = list(itertools.product(range(3), range(3)))
    verts = []
    for basis in itertools.combinations(cells, 5):
        rows = np.zeros((6, 5))
        for k, (i, j) in enumerate(basis):
            rows[i, k] = 1.0
            rows[3 + j, k] = 1.0
        rhs = np.concatenate([mu, nu])
        sol, res, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
        if rank < 5 or np.max(np.abs(rows @ sol - rhs)) > 1e-9:
            continue
        if np.any(sol < -1e-12):
            continue
        plan = np.zeros((3, 3))
        for k, (i, j) in enumerate(basis):
            plan[i, j] = max(sol[k], 0.0)
        verts.append(plan)
    return verts


def test_exact_ot_matches_vertex_enumeration(rng):
    grid = [np.array(m) for m in
            ([0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5])]
    costs = [rng.uniform(0, 3, size=(3, 3)) for _ in range(3)]
    for mu in grid:
        for nu in grid:
            verts = _vertices_3x3(mu, nu)
            for cost in costs:
                ref = min(float((cost * v).sum()) for v in verts)
                val, plan = exact_ot(cost, mu, nu)
                assert val == pytest.approx(ref, abs=1e-10)
                val2, _ = ot_rational(cost, mu, nu)
                assert val2 == pytest.approx(ref, abs=1e-12)


def test_exact_ot_oracle_agrees_with_lp(rng):
    for _ in range(20):
        m, n = rng.integers(2, 7, size=2)
        mu, nu = _rand_mass(rng, m), _rand_mass(rng, n)
        cost = rng.uniform(0, 5, size=(m, n))
        v1, _ = exact_ot(cost, mu, nu)
        v2, _ = ot_rational(cost, mu, nu)
        assert v1 == pytest.approx(v2, abs=1e-9)


def test_exact_ot_permutation_invariance(rng):
    mu, nu = _rand_mass(rng, 4), _rand_mass(rng, 5)
    cost = rng.uniform(0, 2, size=(4, 5))
    v, _ = exact_ot(cost, mu, nu)
    pr, pc = rng.permutation(4), rng.permutation(5)
    v2, _ = exact_ot(cost[np.ix_(pr, pc)], mu[pr], nu[pc])
    assert v == pytest.approx(v2, abs=1e-10)


def test_exact_ot_oracle_size_cap():
    with pytest.raises(ValueError):
        ot_rational(np.zeros((17, 17)), np.full(17, 1 / 17),
                    np.full(17, 1 / 17))


def _lp_cases(rng):
    """(mu, nu, solves) with solves a list of (cost, allowed): 1 x n, m x 1,
    equal uniform marginals with tied costs, random marginals with costs
    that drift a little per solve (so the previous basis is often still
    optimal) or jump at random, all on the whole support; and one model
    that alternates such solves with bottleneck levels."""
    def whole(costs):
        return [(c, None) for c in costs]
    yield np.ones(1), _rand_mass(rng, 5), whole(
        rng.uniform(0, 1, size=(1, 5)) for _ in range(20))
    yield _rand_mass(rng, 4), np.ones(1), whole(
        rng.uniform(0, 1, size=(4, 1)) for _ in range(20))
    mu = np.full(6, 1 / 6)
    yield mu, mu, whole(rng.integers(0, 3, size=(6, 6)).astype(float)
                        for _ in range(25))
    mu, nu = _rand_mass(rng, 7), _rand_mass(rng, 9)
    base = rng.uniform(0, 1, size=(7, 9))
    yield mu, nu, whole(base + rng.normal(0, 0.01, size=base.shape) * k
                        for k in range(25))
    yield mu, nu, whole(np.round(rng.uniform(0, 2, size=(7, 9)), 1)
                        for _ in range(25))
    # a level allows the cells of `level_cost` at or below it, as the
    # bottleneck search of exact_ot does: first with zero cost, then with a
    # cost on the same support, whose bounds the model keeps
    level_cost = rng.uniform(0, 1, size=(7, 9))
    solves = []
    for t in rng.choice(level_cost.ravel(), 10):
        solves += [(rng.uniform(0, 1, size=(7, 9)), None),
                   (np.zeros((7, 9)), level_cost <= t),
                   (rng.uniform(0, 1, size=(7, 9)), level_cost <= t)]
    yield mu, nu, solves


def test_transport_lp_reuse_matches_fresh_solves(rng):
    for mu, nu, solves in _lp_cases(rng):
        lp = TransportLP(mu, nu)
        assert len(solves) >= 20
        for cost, allowed in solves:
            plan = lp.solve(cost, allowed)
            fresh = TransportLP(mu, nu).solve(cost, allowed)
            assert (plan is None) == (fresh is None)
            if plan is None:
                continue
            check_coupling(plan, mu, nu)
            if allowed is not None:
                assert np.all(plan[~allowed] == 0.0)
            got, want = (float((cost * q).sum()) for q in (plan, fresh))
            assert abs(got - want) <= 1e-12 * abs(want) + 1e-15
            if allowed is None:
                assert exact_ot(cost, mu, nu, lp=lp)[0] == got


def test_transport_lp_infeasible_support_returns_none():
    mu = np.array([0.5, 0.5])
    lp = TransportLP(mu, mu)
    zero = np.zeros((2, 2))
    assert lp.solve(zero, allowed=np.array([[True, False],
                                            [False, False]])) is None
    plan = lp.solve(zero, allowed=np.eye(2, dtype=bool))
    assert plan == pytest.approx(np.diag(mu), abs=1e-12)
    # the same model solves the unrestricted problem afterwards
    cost = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert lp.solve(cost) == pytest.approx(np.fliplr(np.diag(mu)), abs=1e-12)
    with pytest.raises(ValueError):
        exact_ot(cost, [0.25, 0.75], mu, lp=lp)


def _bottleneck_oracle(cost, mu, nu):
    """Smallest distinct cost t such that a coupling supported on
    {cost <= t} exists: the exact rational optimum of the 0/1 cost of
    leaving that set is zero."""
    for t in np.unique(cost):
        if ot_rational((cost > t).astype(float), mu, nu)[0] == 0.0:
            return float(t)
    raise AssertionError("the largest level is always feasible")


def test_exact_ot_max_matches_rational_oracle(rng):
    for trial in range(40):
        m, n = rng.integers(1, 7, size=2)
        mu, nu = _rand_mass(rng, m), _rand_mass(rng, n)
        if trial % 2:
            cost = rng.integers(0, 4, size=(m, n)).astype(float)  # ties
        else:
            cost = rng.uniform(0, 5, size=(m, n))
        val, plan = exact_ot(cost, mu, nu, p_mode="max")
        check_coupling(plan, mu, nu)
        assert val == _bottleneck_oracle(cost, mu, nu)
        # a model shared between the modes gives the same answers
        lp = TransportLP(mu, nu)
        total = exact_ot(cost, mu, nu, lp=lp)[0]
        assert exact_ot(cost, mu, nu, p_mode="max", lp=lp)[0] == val
        assert exact_ot(cost, mu, nu, lp=lp)[0] == pytest.approx(
            total, rel=1e-12, abs=1e-15)


def test_exact_ot_max_solves_no_lp_for_the_top_level(rng, monkeypatch):
    # the product coupling is feasible at the largest level, so a search
    # that finds no lower one returns it without an LP
    solves = []
    solve = TransportLP.solve

    def counting(self, cost, allowed=None):
        solves.append(allowed)
        return solve(self, cost, allowed)

    monkeypatch.setattr(TransportLP, "solve", counting)
    mu, nu = np.array([0.3, 0.7]), np.array([0.2, 0.5, 0.3])
    one_level = [np.full((2, 3), 1.5),
                 1.5 + 0.5 * TAU_METRIC * rng.uniform(size=(2, 3))]
    two_failing = np.array([[0.0, 2.0, 2.0], [2.0, 2.0, 1.0]])
    for cost, lower in [(c, 0) for c in one_level] + [(two_failing, 1)]:
        solves.clear()
        val, plan = exact_ot(cost, mu, nu, p_mode="max")
        assert len(solves) == lower
        assert val == cost.max()
        assert np.array_equal(plan, np.outer(mu, nu))


def test_w_ultrametric_p_metric(rng):
    x = rand_ultrametric(rng, 6)
    for p in (1, 2):
        for _ in range(15):
            a, b, c = (_rand_mass(rng, 6) for _ in range(3))
            dab = w_ultrametric(x, a, b, p)
            dbc = w_ultrametric(x, b, c, p)
            dac = w_ultrametric(x, a, c, p)
            assert dac ** p <= dab ** p + dbc ** p + 1e-9
    for _ in range(15):
        a, b, c = (_rand_mass(rng, 6) for _ in range(3))
        assert w_ultrametric(x, a, c, np.inf) <= max(
            w_ultrametric(x, a, b, np.inf),
            w_ultrametric(x, b, c, np.inf)) + 1e-9


def test_w_line_classical_inf(rng):
    a = ScalarMeasure([0.0, 1.0], [0.5, 0.5])
    b = ScalarMeasure([0.0, 3.0], [0.5, 0.5])
    assert w_line_classical(a, b, np.inf) == pytest.approx(2.0)


def test_marginal_constraints_match_loop_construction():
    for m, n in ((1, 1), (1, 4), (3, 1), (2, 3), (5, 4), (7, 7)):
        ref = np.zeros((m + n, m * n))
        for i in range(m):
            ref[i, i * n:(i + 1) * n] = 1.0
        for j in range(n):
            ref[m + j, j::n] = 1.0
        got = marginal_constraints(m, n).toarray()
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
