import numpy as np
import pytest

from conftest import (delta_hat2, rand_tree, rand_ultrametric,
                      tied_ultrametric)
from ultragw import (UmSpace, diam_p, eccentricities, exact_ot, flb,
                     global_distance_distribution, lam,
                     local_distance_distribution, slb, tlb, tree_shape_space,
                     uflb, ugw_inf_exact, uslb, uslb1_decomposition, utlb)
from ultragw.spaces import TAU_METRIC
from ultragw.transport import w_halfline_rows, w_line_rows

U3 = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0.]])


def c13_pair():
    x1 = UmSpace(list("abc"), U3, np.array([2 / 3, 1 / 6, 1 / 6]))
    c = 1 / (2 * np.sqrt(3))
    x2 = UmSpace(list("abc"), U3, np.array([1 / 3, 1 / 3 - c, 1 / 3 + c]))
    return x1, x2


def test_uslb_two_point():
    a1, a2 = 0.3, 0.7
    x = delta_hat2(1.0, (a1, a2))
    y = delta_hat2(2.0, (a1, a2))
    assert uslb(x, y, 1) == pytest.approx(2 * a1 * a2 * 2.0, abs=1e-12)


def test_uslb_relabel_zero(rng):
    x = rand_ultrametric(rng, 6)
    perm = rng.permutation(6)
    y = UmSpace(list(x.ids), x.u[np.ix_(perm, perm)], x.mu[perm])
    for p in (1, 2, np.inf):
        assert uslb(x, y, p) == 0.0


def test_uslb_vanishes_on_c13_pair():
    x1, x2 = c13_pair()
    # both global distance distributions are (1/2, 1/2) on {0, 1}
    for p in (1, 2, np.inf):
        assert uslb(x1, x2, p) == 0.0


def test_utlb_positive_on_c13_pair():
    x1, x2 = c13_pair()
    a = local_distance_distribution(x1, 0)
    assert np.allclose(a.x, [0, 1]) and np.allclose(a.m, [2 / 3, 1 / 3])
    for p in (1, 2, np.inf):
        assert utlb(x1, x2, p) > 1e-3


def test_uslb1_decomposition_examples(rng):
    x = rand_ultrametric(rng, 5)
    u1, s1, tv = uslb1_decomposition(x, x)
    assert u1 == 0.0 and s1 == 0.0 and tv == 0.0
    a1, a2, d, dp = 0.25, 0.75, 1.0, 2.0
    u1, s1, tv = uslb1_decomposition(delta_hat2(d, (a1, a2)),
                                     delta_hat2(dp, (a1, a2)))
    assert tv == pytest.approx(a1 * a2 * (d + dp), abs=1e-12)
    assert u1 == pytest.approx(s1 + tv, abs=1e-10)


def test_uslb1_decomposition_identity(rng):
    for _ in range(50):
        x = rand_ultrametric(rng, int(rng.integers(2, 8)))
        y = rand_ultrametric(rng, int(rng.integers(2, 8)))
        u1, s1, tv = uslb1_decomposition(x, y)
        assert u1 == pytest.approx(s1 + tv, abs=1e-10)
        assert u1 == pytest.approx(uslb(x, y, 1), abs=1e-12)
        assert s1 == pytest.approx(slb(x, y, 1), abs=1e-12)


def test_uflb_inf_is_diameter_gap(rng):
    x = rand_ultrametric(rng, 4, scale=0.6)
    y = rand_ultrametric(rng, 5, scale=1.7)
    dx, dy = diam_p(x, np.inf), diam_p(y, np.inf)
    assert uflb(x, y, np.inf) == pytest.approx(lam(dx, dy, np.inf), abs=1e-12)
    assert uflb(x, x, np.inf) == 0.0


def test_uflb_counterexample_pair():
    n = 4
    ux = np.full((n, n), 2.0)
    np.fill_diagonal(ux, 0.0)
    ux[0, 1] = ux[1, 0] = 1.0
    x = UmSpace(list("abcd"), ux, np.full(n, 1 / n))
    uy = np.full((n, n), 2.0)
    np.fill_diagonal(uy, 0.0)
    y = UmSpace(list("wxyz"), uy, np.full(n, 1 / n))
    assert uflb(x, y, 1) == pytest.approx((4 * n - 4) / n ** 2, abs=1e-10)
    # yet a feasible coupling certifies a much smaller distortion
    from ultragw import dis_ult
    assert dis_ult(x, y, np.eye(n) / n, 1) == pytest.approx(4 / n ** 2)
    assert uflb(x, y, 1) > dis_ult(x, y, np.eye(n) / n, 1)


def test_uflb_matches_exact_ot(rng):
    # the 1-d reduction of the first bound against the OT reference
    for _ in range(30):
        x = rand_ultrametric(rng, int(rng.integers(2, 9)))
        y = rand_ultrametric(rng, int(rng.integers(2, 9)))
        for p in (1, 2):
            sx, sy = eccentricities(x, p), eccentricities(y, p)
            cost = np.array([[lam(a, b, np.inf) ** p for b in sy] for a in sx])
            val, _ = exact_ot(cost, x.mu, y.mu)
            assert uflb(x, y, p) == pytest.approx(max(val, 0.0) ** (1 / p),
                                                  abs=1e-8)


def test_flb_matches_exact_ot(rng):
    for _ in range(15):
        x = rand_ultrametric(rng, int(rng.integers(2, 7)))
        y = rand_ultrametric(rng, int(rng.integers(2, 7)))
        for p in (1, 2):
            sx, sy = eccentricities(x, p), eccentricities(y, p)
            cost = np.array([[abs(a - b) ** p for b in sy] for a in sx])
            val, _ = exact_ot(cost, x.mu, y.mu)
            assert flb(x, y, p) == pytest.approx(
                0.5 * max(val, 0.0) ** (1 / p), abs=1e-8)


def test_uslb_leq_utlb(rng):
    for _ in range(40):
        x = rand_ultrametric(rng, int(rng.integers(2, 7)))
        y = rand_ultrametric(rng, int(rng.integers(2, 7)))
        for p in (1, 2, np.inf):
            assert uslb(x, y, p) <= utlb(x, y, p) + 1e-9


def test_inf_chain(rng):
    for _ in range(25):
        x = rand_ultrametric(rng, int(rng.integers(2, 6)))
        y = rand_ultrametric(rng, int(rng.integers(2, 6)))
        top = ugw_inf_exact(x, y).value
        t = utlb(x, y, np.inf)
        assert uflb(x, y, np.inf) <= t + 1e-9
        assert uslb(x, y, np.inf) <= t + 1e-9
        assert t <= top + 1e-9
        assert uflb(x, y, np.inf) <= top + 1e-9


def test_uslb_dominates_classical(rng):
    for _ in range(30):
        x = rand_ultrametric(rng, int(rng.integers(2, 7)))
        y = rand_ultrametric(rng, int(rng.integers(2, 7)))
        for p in (1, 2):
            assert uslb(x, y, p) >= slb(x, y, p) - 1e-9


def test_tlb_basics(rng):
    x = rand_ultrametric(rng, 5)
    for p in (1, 2, np.inf):
        assert tlb(x, x, p) == pytest.approx(0.0, abs=1e-12)
    y = rand_ultrametric(rng, 4)
    assert tlb(x, y, 1) >= 0.0
    assert utlb(x, x, np.inf) == 0.0


def test_bounds_return_python_floats(rng):
    x = rand_ultrametric(rng, 5)
    y = tied_ultrametric(rng, 4)
    for bound in (uslb, utlb, uflb, slb, tlb, flb):
        for p in (1, 2, np.inf):
            assert type(bound(x, y, p)) is float


def test_global_distribution_includes_diagonal(rng):
    x = rand_ultrametric(rng, 4)
    d = global_distance_distribution(x)
    # mass at 0 is exactly the diagonal mass sum(mu^2)
    assert d.x[0] == 0.0
    assert d.m[0] == pytest.approx(float(np.sum(x.mu ** 2)), abs=1e-15)
    assert d.m.sum() == pytest.approx(1.0, abs=1e-12)


def _local_cost_oracle(x, y, p, ground):
    """Per-pair LP over the ground cost ground(a, b)^p between the local
    distance distributions of x (rows) and y (columns)."""
    cost = np.empty((x.n, y.n))
    for i in range(x.n):
        for j in range(y.n):
            c = np.array([[ground(a, b) for b in y.u[j]] for a in x.u[i]])
            if p == np.inf:
                cost[i, j] = exact_ot(c, x.mu, y.mu, p_mode="max")[0]
            else:
                val = exact_ot(c ** p, x.mu, y.mu)[0]
                cost[i, j] = max(val, 0.0) ** (1.0 / p)
    return cost


def _small_tree_space(rng):
    while True:
        space = tree_shape_space(rand_tree(rng))
        if 2 <= space.n <= 8:
            return space


def test_local_cost_matches_lp_oracle(rng):
    jitter = 0.4 * TAU_METRIC  # every tie class stays within TAU_METRIC
    pairs = [(tied_ultrametric(rng, int(rng.integers(2, 7)), jit),
              tied_ultrametric(rng, int(rng.integers(2, 7)), jit))
             for jit in (0.0, 0.0, jitter, jitter)]
    pairs += [(_small_tree_space(rng), _small_tree_space(rng))
              for _ in range(4)]
    assert any(np.any(np.diag(x.u) > 0) for pair in pairs for x in pair)
    # the ultrametric cost of utlb and the classical cost of tlb
    kernels = ((w_halfline_rows, lambda a, b: lam(a, b, np.inf)),
               (w_line_rows, lambda a, b: abs(a - b)))
    for x, y in pairs:
        for p in (1, 2, np.inf):
            for kernel, ground in kernels:
                got = kernel(x.u, x.mu, y.u, y.mu, p)
                assert got.shape == (x.n, y.n)
                assert np.allclose(got, _local_cost_oracle(x, y, p, ground),
                                   rtol=0.0, atol=1e-8)


def test_utlb_relabel_zero(rng):
    spaces = [rand_ultrametric(rng, 9), tied_ultrametric(rng, 8),
              _small_tree_space(rng)]
    for x in spaces:
        perm = rng.permutation(x.n)
        y = UmSpace(["y%d" % k for k in range(x.n)], x.u[np.ix_(perm, perm)],
                    x.mu[perm])
        for p in (1, np.inf):
            assert utlb(x, y, p) == 0.0
