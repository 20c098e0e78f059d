"""Acceptance suite: one test per acceptance criterion.

Each test prints a single "criterion NN (<name>): PASS|FAIL" line on the
real stdout (bypassing pytest capture) so the verdicts are visible in the
plain pytest log.
"""

import contextlib
import itertools
import sys
import time

import numpy as np
import pytest

from conftest import delta_hat2, one_point, rand_measure, rand_ultrametric
from cost_tensor import cost_tensor, value as tensor_value
from ultragw import (FwConfig, UmSpace, diam_p, dis_ult, exact_ot,
                     gen_ultrametric, GenSpec, hitrun_couplings, lam,
                     local_distance_distribution, parse_newick, perturb,
                     quotient, slb, spectrum, tree_shape_space, ugh_exact,
                     ugw_fw, ugw_inf_exact, uflb, uslb, uslb1_decomposition,
                     usturm_bruteforce, utlb, w_halfline, w_quantile,
                     w_ultrametric, write_newick)
from ultragw import cli
from ultragw.gw import Distortion
from ultragw.spaces import dedup_sorted


_CAPSYS = None


@pytest.fixture(autouse=True)
def _capture_handle(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


class criterion:
    """Context manager emitting the one-line PASS/FAIL verdict."""

    def __init__(self, num, name):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        off = _CAPSYS.disabled() if _CAPSYS else contextlib.nullcontext()
        with off:
            print("criterion %02d (%s): %s" % (self.num, self.name, status),
                  file=sys.__stdout__, flush=True)
        return False


def _rand_mass(rng, n):
    m = rng.dirichlet(np.ones(n))
    m = (m + 0.05) / (1 + 0.05 * n)
    return m / m.sum()


def test_criterion_01_closed_form_oracle_equivalence():
    rng = np.random.default_rng(101)
    with criterion(1, "closed-form oracle equivalence"):
        start = time.perf_counter()
        for _ in range(200):
            x = rand_ultrametric(rng, int(rng.integers(2, 9)))
            a, b = _rand_mass(rng, x.n), _rand_mass(rng, x.n)
            for p in (1, 2):
                val, _ = exact_ot(x.u ** p, a, b)
                ref = max(val, 0.0) ** (1 / p)
                assert abs(w_ultrametric(x, a, b, p) - ref) <= 1e-8
            val, _ = exact_ot(x.u, a, b, p_mode="max")
            assert abs(w_ultrametric(x, a, b, np.inf) - val) <= 1e-8
        for _ in range(200):
            a = rand_measure(rng, int(rng.integers(1, 9)))
            b = rand_measure(rng, int(rng.integers(1, 9)))
            for p in (1, 2):
                cost = np.array([[lam(xi, yj, np.inf) ** p for yj in b.x]
                                 for xi in a.x])
                val, _ = exact_ot(cost, a.m, b.m)
                ref = max(val, 0.0) ** (1 / p)
                assert abs(w_halfline(a, b, p) - ref) <= 1e-8
            cost = np.array([[lam(xi, yj, np.inf) for yj in b.x]
                             for xi in a.x])
            val, _ = exact_ot(cost, a.m, b.m, p_mode="max")
            assert abs(w_halfline(a, b, np.inf) - val) <= 1e-8
        for _ in range(200):
            a = rand_measure(rng, int(rng.integers(1, 9)))
            b = rand_measure(rng, int(rng.integers(1, 9)))
            for p, q in ((1, 1), (2, 1), (2, 2), (3, 2)):
                cost = np.array([[lam(xi, yj, q) ** p for yj in b.x]
                                 for xi in a.x])
                val, _ = exact_ot(cost, a.m, b.m)
                ref = max(val, 0.0) ** (1 / p)
                assert abs(w_quantile(a, b, p, q) - ref) <= 1e-8
        assert time.perf_counter() - start < 30.0


def test_criterion_02_two_point_family():
    rng = np.random.default_rng(102)
    with criterion(2, "two-point family"):
        for k in range(50):
            a, b = sorted(rng.uniform(1.0, 2.0, size=2))
            if b - a < 1e-6:
                b = a + 0.1
            x, y = delta_hat2(a), delta_hat2(b)
            assert ugw_inf_exact(x, y).value == max(a, b)
            res = ugw_fw(x, y, 1, FwConfig(restarts=3, iterations=300,
                                           seed=k))
            assert abs(res.value - 0.5 * max(a, b)) <= 1e-6


def test_criterion_03_diameter_gap():
    rng = np.random.default_rng(103)
    with criterion(3, "diameter gap"):
        for _ in range(50):
            x = rand_ultrametric(rng, int(rng.integers(2, 7)), scale=0.5)
            y = rand_ultrametric(rng, int(rng.integers(2, 7)), scale=2.0)
            if diam_p(x, np.inf) >= diam_p(y, np.inf):
                continue
            dy = diam_p(y, np.inf)
            assert ugw_inf_exact(x, y).value == dy
            assert ugh_exact(x, y) == dy


def test_criterion_04_one_point_reference():
    rng = np.random.default_rng(104)
    cfg = FwConfig(restarts=2, iterations=100, seed=4)
    with criterion(4, "one-point reference"):
        for _ in range(50):
            x = rand_ultrametric(rng, int(rng.integers(2, 8)))
            for p in (1, 2):
                assert ugw_fw(x, one_point(), p, cfg).value == diam_p(x, p)


def test_criterion_05_sturm_brute_force():
    rng = np.random.default_rng(105)
    with criterion(5, "Sturm brute force"):
        for n in range(1, 6):
            x, y = delta_hat2(1.0), delta_hat2(1.0 + 1.0 / n)
            for p in (1, 2, np.inf):
                expect = (1 + 1.0 / n if p == np.inf
                          else 2.0 ** (-1.0 / p) * (1 + 1.0 / n))
                assert abs(usturm_bruteforce(x, y, p).value - expect) <= 1e-9
        for _ in range(50):
            x = rand_ultrametric(rng, int(rng.integers(1, 6)))
            y = rand_ultrametric(rng, int(rng.integers(1, 6)))
            st = usturm_bruteforce(x, y, np.inf).value
            assert abs(st - ugw_inf_exact(x, y).value) <= 1e-9


def test_criterion_06_lower_bound_chain():
    rng = np.random.default_rng(106)
    with criterion(6, "lower-bound chain"):
        for k in range(200):
            x = rand_ultrametric(rng, int(rng.integers(2, 7)))
            y = rand_ultrametric(rng, int(rng.integers(2, 7)))
            fw = ugw_fw(x, y, 1, FwConfig(restarts=1, iterations=40,
                                          seed=k)).value
            t1 = utlb(x, y, 1)
            assert uslb(x, y, 1) <= t1 + 1e-9
            assert t1 <= fw + 1e-9
            top = ugw_inf_exact(x, y).value
            ti = utlb(x, y, np.inf)
            assert uslb(x, y, np.inf) <= ti + 1e-9
            assert ti <= top + 1e-9
            fi = uflb(x, y, np.inf)
            gap = lam(diam_p(x, np.inf), diam_p(y, np.inf), np.inf)
            assert abs(fi - gap) <= 1e-12
            assert fi <= top + 1e-9


def test_criterion_07_slb_decomposition():
    rng = np.random.default_rng(107)
    with criterion(7, "second-lower-bound decomposition"):
        for _ in range(200):
            x = rand_ultrametric(rng, int(rng.integers(2, 8)))
            y = rand_ultrametric(rng, int(rng.integers(2, 8)))
            u1, s1, tv = uslb1_decomposition(x, y)
            assert abs(u1 - (s1 + tv)) <= 1e-10
            assert abs(u1 - uslb(x, y, 1)) <= 1e-12
            assert abs(s1 - slb(x, y, 1)) <= 1e-12
        u3 = np.ones((3, 3)) - np.eye(3)
        x1 = UmSpace(list("abc"), u3, np.array([2 / 3, 1 / 6, 1 / 6]))
        c = 1 / (2 * np.sqrt(3))
        x2 = UmSpace(list("abc"), u3,
                     np.array([1 / 3, 1 / 3 - c, 1 / 3 + c]))
        for p in (1, 2, np.inf):
            assert uslb(x1, x2, p) == 0.0
            assert utlb(x1, x2, p) > 0.0


def test_criterion_08_counterexample_reproduction():
    with criterion(8, "first lower bound can exceed the distance"):
        n = 4
        ux = np.full((n, n), 2.0)
        np.fill_diagonal(ux, 0.0)
        ux[0, 1] = ux[1, 0] = 1.0
        x = UmSpace(list("abcd"), ux, np.full(n, 1 / n))
        uy = np.full((n, n), 2.0)
        np.fill_diagonal(uy, 0.0)
        y = UmSpace(list("wxyz"), uy, np.full(n, 1 / n))
        f1 = uflb(x, y, 1)
        assert abs(f1 - (4 * n - 4) / n ** 2) <= 1e-10
        upper = dis_ult(x, y, np.eye(n) / n, 1)
        assert upper <= 4 / n ** 2 + 1e-12
        assert f1 > upper


def test_criterion_09_gradient_check():
    # the solver's gradient 2 D(plan) against finite differences of the
    # dense tensor oracle's value
    rng = np.random.default_rng(109)
    with criterion(9, "gradient matches finite differences"):
        for k in range(20):
            x = rand_ultrametric(rng, int(rng.integers(3, 6)))
            y = rand_ultrametric(rng, int(rng.integers(2, 5)))
            plan = hitrun_couplings(x.mu, y.mu, 1, steps=5, seed=k)[0]
            for p in (1, 2):
                t = cost_tensor(x, y, p)
                grad = 2 * Distortion(x, y, p, ultra=True)(plan)

                def val(q):
                    return tensor_value(t, q)

                h = 1e-6
                for i in range(x.n):
                    for j in range(y.n):
                        e = np.zeros_like(plan)
                        e[i, j] = h
                        fd = (val(plan + e) - val(plan - e)) / (2 * h)
                        scale = max(1.0, abs(grad[i, j]))
                        assert abs(fd - grad[i, j]) <= 1e-5 * scale


def test_criterion_10_metric_axioms():
    rng = np.random.default_rng(110)
    with criterion(10, "symmetry and max-triangle inequality"):
        failures = 0
        for _ in range(100):
            x, y, z = (rand_ultrametric(rng, int(rng.integers(2, 6)))
                       for _ in range(3))
            dxy = ugw_inf_exact(x, y).value
            dyz = ugw_inf_exact(y, z).value
            dxz = ugw_inf_exact(x, z).value
            failures += dxz > max(dxy, dyz) + 1e-12
            failures += dxy != ugw_inf_exact(y, x).value
        assert failures == 0


def _iso_weighted(a, b, tol=1e-9):
    if a.n != b.n:
        return False
    for perm in itertools.permutations(range(a.n)):
        perm = list(perm)
        if np.max(np.abs(a.mu - b.mu[perm])) > tol:
            continue
        if np.max(np.abs(a.u - b.u[np.ix_(perm, perm)])) <= tol:
            return True
    return False


def _ugw_inf_bruteforce(x, y):
    """Exhaustive block-matching minimization over the merged spectrum."""
    levels = dedup_sorted(sorted(spectrum(x) + spectrum(y)))
    passing = None
    for t in reversed(levels):
        if _iso_weighted(quotient(x, t).quotient, quotient(y, t).quotient):
            passing = t
        else:
            break
    return passing


def test_criterion_11_block_matching_equivalence():
    rng = np.random.default_rng(111)
    with criterion(11, "order-infinity brute-force equivalence"):
        suite = [one_point(), delta_hat2(1.0), delta_hat2(1.0, (0.25, 0.75)),
                 delta_hat2(2.0)]
        while len(suite) < 30:
            suite.append(rand_ultrametric(rng, int(rng.integers(2, 6))))
        for x, y in itertools.combinations(suite, 2):
            assert abs(ugw_inf_exact(x, y).value
                       - _ugw_inf_bruteforce(x, y)) <= 1e-12


def test_criterion_12_phylo_pipeline():
    rng = np.random.default_rng(112)
    with criterion(12, "tree pipeline"):
        cat = tree_shape_space(parse_newick("(((A,B),C),D);"))
        assert np.array_equal(cat.u, np.array([[0, 1, 2, 3],
                                               [1, 0, 2, 3],
                                               [2, 2, 1, 3],
                                               [3, 3, 3, 2.]]))
        bal = tree_shape_space(parse_newick("((A,B),(C,D));"))
        assert np.array_equal(bal.u, np.array([[0, 1, 2, 2],
                                               [1, 0, 2, 2],
                                               [2, 2, 0, 1],
                                               [2, 2, 1, 0.]]))
        from conftest import rand_tree
        for k in range(500):
            t = rand_tree(rng, lengths=bool(k % 2))
            s = write_newick(t)
            assert write_newick(parse_newick(s)) == s
        for trial in range(100):
            x = gen_ultrametric(GenSpec(k=2, samples_per_block=20,
                                        subsample=7, seed=trial))
            t = float(rng.uniform(0, diam_p(x, np.inf) * 1.2))
            y = perturb(x, t, seed=trial)
            assert ugw_inf_exact(x, y).value <= t + 1e-9


def test_criterion_13_matrix_determinism(tmp_path):
    with criterion(13, "distance-matrix determinism"):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for s in range(20):
            assert cli.main(["gen", "--k", "2", "--subsample", "4",
                             "--seed", str(s),
                             "--out", str(corpus / ("s%02d.json" % s))]) == 0
        for method, p, extra in (("uslb", "1", []),
                                 ("utlb", "1", []),
                                 ("utlb", "inf", []),
                                 ("ugw-fw", "1", ["--restarts", "1",
                                                  "--iters", "15"])):
            outs = []
            for tag, threads in (("a", 1), ("b", 1), ("c", 8)):
                out = tmp_path / ("%s_%s_%s.csv" % (method, p, tag))
                args = ["matrix", "--dir", str(corpus), "--method", method,
                        "--p", p, "--seed", "5", "--threads", str(threads),
                        "--format", "csv", "--out", str(out)] + extra
                assert cli.main(args) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1] == outs[2]
