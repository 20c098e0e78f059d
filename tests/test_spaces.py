import json

import numpy as np
import pytest

from conftest import delta_hat2, rand_ultrametric
from ultragw import (UmSpace, dendro_from_json, dendro_to_json, diam_p,
                     from_dendrogram, quotient, snowflake, space_from_json,
                     space_to_json, spectrum, to_dendrogram, validate)
from ultragw.phylo import parse_newick, tree_shape_space
from ultragw.spaces import TAU_METRIC, dedup_sorted

CHAIN3 = UmSpace(list("abc"), np.array([[0, 1, 2], [1, 0, 2], [2, 2, 0.]]),
                 np.array([0.2, 0.3, 0.5]))


def test_validate_two_point_passes():
    assert validate(delta_hat2(1.0), "ultrametric").ok


def test_validate_flags_triangle_violation():
    bad = UmSpace(list("abc"), np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0.]]),
                  np.full(3, 1 / 3))
    rep = validate(bad, "ultrametric")
    assert not rep.ok
    assert ("triangle", 0, 2, 1) in rep.violations


def test_validate_tree_shape_modes():
    space = tree_shape_space(parse_newick("(((A,B),C),D);"))
    assert validate(space, "ultra_dissimilarity").ok
    assert not validate(space, "ultrametric").ok


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        UmSpace(["a"], np.zeros((1, 2)), np.ones(1))
    with pytest.raises(ValueError):
        UmSpace(["a", "b"], np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        UmSpace(["a", "b"], np.zeros((2, 2)), np.array([0.6, 0.6]))


def test_constructor_rejects_non_finite():
    u = np.array([[0.0, 1.0], [1.0, 0.0]])
    for bad in (np.nan, np.inf, -np.inf):
        u_bad = u.copy()
        u_bad[0, 1] = u_bad[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            UmSpace(["a", "b"], u_bad, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            UmSpace(["a", "b"], u, np.array([bad, 0.5]))
    # NaN masses slip past "mu > 0" and "sum == 1" comparisons
    with pytest.raises(ValueError, match="finite"):
        UmSpace(["a", "b"], u, np.array([np.nan, 0.5]))


def _dedup_sorted_loop(vals, tol=TAU_METRIC):
    """Tolerance loop over every value, duplicates included (oracle)."""
    out = []
    for v in np.asarray(vals, dtype=float).ravel():
        if not out or v - out[-1] > tol:
            out.append(float(v))
    return out


def test_dedup_sorted_matches_loop(rng):
    steps = np.array([0.0, 0.3, 0.6, 0.99, 1.0, 1.01, 2.0, 5.0]) * TAU_METRIC
    for _ in range(300):
        parts = []
        for _ in range(int(rng.integers(0, 6))):
            # a chain: one base value plus a run of small increments
            base = float(rng.choice([0.0, 0.25, 1.0, 3.0]))
            incs = rng.choice(steps, size=int(rng.integers(1, 8)))
            parts.append(base + np.cumsum(incs))
        parts.append(rng.choice([0.0, 0.25, 1.0], size=int(rng.integers(0, 5))))
        vals = np.sort(np.concatenate(parts))
        assert dedup_sorted(vals) == _dedup_sorted_loop(vals)
        assert dedup_sorted(vals, tol=0.0) == _dedup_sorted_loop(vals, tol=0.0)
    u = rand_ultrametric(rng, 12).u
    assert dedup_sorted(np.sort(u.ravel())) == _dedup_sorted_loop(np.sort(u.ravel()))


def test_quotient_total_collapse():
    q = quotient(CHAIN3, 2.5)
    assert len(q.blocks) == 1
    assert q.quotient.mu[0] == pytest.approx(1.0)


def test_quotient_identity_at_zero():
    q = quotient(CHAIN3, 0.0)
    assert q.blocks == ((0,), (1,), (2,))


def test_quotient_chain_example():
    q = quotient(CHAIN3, 1.0)
    assert q.blocks == ((0, 1), (2,))
    assert np.allclose(q.quotient.u, [[0, 2], [2, 0]])
    assert np.allclose(q.quotient.mu, [0.5, 0.5])


def test_quotient_idempotence(rng):
    for _ in range(25):
        x = rand_ultrametric(rng, int(rng.integers(3, 8)))
        s, t = rng.uniform(0, 1.2, size=2)
        a = quotient(quotient(x, t).quotient, s).quotient
        b = quotient(x, max(s, t)).quotient
        assert a.n == b.n
        # same multiset of masses and distances up to relabeling
        assert np.allclose(sorted(a.mu), sorted(b.mu))
        assert np.allclose(sorted(a.u.ravel()), sorted(b.u.ravel()))


def test_quotient_block_count_monotone(rng):
    x = rand_ultrametric(rng, 9)
    counts = [len(quotient(x, t).blocks) for t in np.linspace(0, 1.1, 23)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_spectrum_examples():
    assert spectrum(delta_hat2(1.0)) == [0.0, 1.0]
    assert spectrum(CHAIN3) == [0.0, 1.0, 2.0]
    assert len(spectrum(CHAIN3)) <= 3 * 2 / 2 + 1


def test_spectrum_of_snowflake(rng):
    x = rand_ultrametric(rng, 6)
    assert np.allclose(spectrum(snowflake(x, 2.0)),
                       [v ** 2 for v in spectrum(x)])


def test_snowflake_examples(rng):
    x = rand_ultrametric(rng, 5)
    assert np.array_equal(snowflake(x, 1.0).u, x.u)
    assert np.allclose(snowflake(delta_hat2(2.0), 2.0).u,
                       delta_hat2(4.0).u)
    for _ in range(100):
        y = rand_ultrametric(rng, int(rng.integers(2, 9)))
        assert validate(snowflake(y, rng.uniform(1, 3)), "ultrametric").ok
    with pytest.raises(ValueError):
        snowflake(x, 0.5)


def test_snowflake_composition(rng):
    x = rand_ultrametric(rng, 6)
    a = snowflake(snowflake(x, 2.0), 1.5)
    b = snowflake(x, 3.0)
    assert np.allclose(a.u, b.u)


def test_dendrogram_two_point():
    root = to_dendrogram(delta_hat2(1.0))
    assert root.height == 1.0 and len(root.children) == 2
    assert all(c.is_leaf and c.height == 0.0 for c in root.children)


def test_dendrogram_chain():
    root = to_dendrogram(CHAIN3)
    assert root.height == 2.0
    kinds = sorted(len(c.children) for c in root.children)
    assert kinds == [0, 2]
    inner = [c for c in root.children if c.children][0]
    assert inner.height == 1.0


def test_dendrogram_round_trip(rng):
    for _ in range(100):
        x = rand_ultrametric(rng, int(rng.integers(2, 10)))
        back = from_dendrogram(to_dendrogram(x))
        perm = [back.ids.index(i) for i in x.ids]
        assert np.array_equal(back.u[np.ix_(perm, perm)], x.u)  # bit exact
        assert np.array_equal(back.mu[perm], x.mu)


def test_dendro_json_is_one_preorder_node_list():
    u = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 0.]])
    x = UmSpace(["a", "b", "c"], u, [0.25, 0.25, 0.5])
    obj = dendro_to_json(to_dendrogram(x))
    assert obj == {"nodes": [  # a point ranks below a merge
        {"parent": None, "h": 2.0, "mass": 1.0},
        {"parent": 0, "h": 0.0, "mass": 0.5, "id": "c"},
        {"parent": 0, "h": 1.0, "mass": 0.5},
        {"parent": 2, "h": 0.0, "mass": 0.25, "id": "a"},
        {"parent": 2, "h": 0.0, "mass": 0.25, "id": "b"}]}
    assert dendro_to_json(dendro_from_json(obj)) == obj


def test_diam_examples():
    assert diam_p(delta_hat2(1.0), 1) == pytest.approx(0.5)
    x = UmSpace(list("abc"), np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0.]]),
                np.array([0.25, 0.25, 0.5]))
    assert diam_p(x, 1) == pytest.approx(0.625)
    # same value via the closed formula for masses (1/2n, 1/2n, 1-1/n), n=2
    n = 2
    assert diam_p(x, 1) == pytest.approx((2 / n) * (1 - 3 / (4 * n)))
    assert diam_p(x, np.inf) == 1.0


def test_json_round_trips(rng):
    x = rand_ultrametric(rng, 6)
    y = space_from_json(json.loads(json.dumps(space_to_json(x))))
    assert np.array_equal(y.u, x.u) and np.array_equal(y.mu, x.mu)
    assert y.ids == x.ids
    root = to_dendrogram(x)
    back = dendro_from_json(json.loads(json.dumps(dendro_to_json(root))))
    assert from_dendrogram(back).n == x.n
    assert np.allclose(sorted(from_dendrogram(back).u.ravel()),
                       sorted(x.u.ravel()))
