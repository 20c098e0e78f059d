"""Caterpillars deeper than the interpreter's recursion limit through every
tree helper, at the default limit: Newick in and out, tree shapes,
dendrograms and their JSON, signatures, the order-infinity solvers and the
CLI."""

import json
import tracemalloc

import numpy as np

from ultragw import (UmSpace, canonical_signature, cli, dendro_from_json,
                     dendro_to_json, from_dendrogram, parse_newick,
                     to_dendrogram, tree_shape_space, treegram, ugh_exact,
                     ugw_inf_exact, write_newick)
from ultragw.spaces import merge_tree


def caterpillar_newick(n):
    """(((t0,t1),t2),...,t(n-1)); tip t_i joins the tips before it."""
    return ("(" * (n - 1) + "t0"
            + "".join(",t%d)" % i for i in range(1, n)) + ";")


def caterpillar_shape(n):
    """The tree-shape space of caterpillar_newick(n): u[i,j] = max(i, j)
    between distinct tips, and tip i is born at max(i - 1, 0)."""
    k = np.arange(n)
    u = np.maximum(k[:, None], k[None, :]).astype(float)
    np.fill_diagonal(u, np.maximum(k - 1, 0))
    return u


def caterpillar(n):
    """Ultrametric caterpillar: point i joins the points before it at
    height i."""
    k = np.arange(n)
    u = np.maximum(k[:, None], k[None, :]).astype(float)
    np.fill_diagonal(u, 0.0)
    return UmSpace(["p%d" % i for i in range(n)], u, np.full(n, 1.0 / n))


def relabel(x, seed):
    perm = np.random.default_rng(seed).permutation(x.n)
    return UmSpace(["q%d" % i for i in range(x.n)],
                   x.u[np.ix_(perm, perm)], x.mu[perm])


def test_newick_caterpillar_through_every_tree_helper():
    n = 2000
    text = caterpillar_newick(n)
    tree = parse_newick(text)
    assert write_newick(tree) == text
    assert [t.label for t in tree.tips()] == ["t%d" % i for i in range(n)]
    x = tree_shape_space(tree)
    assert x.ids == tuple("t%d" % i for i in range(n))
    assert np.array_equal(x.u, caterpillar_shape(n))
    root = treegram(x)
    assert len(root.leaves()) == n
    back = from_dendrogram(to_dendrogram(x))
    index = {name: i for i, name in enumerate(back.ids)}
    perm = [index[name] for name in x.ids]
    assert np.array_equal(back.u[np.ix_(perm, perm)], x.u)  # bit exact
    assert np.array_equal(back.mu[perm], x.mu)
    sig = canonical_signature(x)
    assert canonical_signature(relabel(x, 1)) == sig
    assert canonical_signature(root) == sig
    assert canonical_signature(caterpillar(n)) != sig


def test_merge_tree_of_a_deep_caterpillar_is_linear_in_size():
    n = 2000
    x = caterpillar(n)
    x.linkage, x.levels  # cached per space, and read from u's n^2 values
    tracemalloc.start()
    try:
        order, level, children, start, stop = merge_tree(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    # point i joins the run of the points before it at level i - 1
    assert len(children) == 2 * n - 1
    assert sorted(order[start[-1]:stop[-1]].tolist()) == list(range(n))
    for v, k in ((n, 0), (n + 999, 999), (2 * n - 2, n - 2)):
        assert level[v] == k and stop[v] - start[v] == k + 2


def test_deep_dendrogram_round_trips_through_json():
    x = caterpillar(2000)
    root = to_dendrogram(x)
    obj = dendro_to_json(root)
    assert len(obj["nodes"]) == 2 * x.n - 1
    back = dendro_from_json(json.loads(json.dumps(obj)))
    assert dendro_to_json(back) == obj
    y = from_dendrogram(back)
    perm = [y.ids.index(i) for i in x.ids]
    assert np.array_equal(y.u[np.ix_(perm, perm)], x.u)  # bit exact
    assert np.array_equal(y.mu[perm], x.mu)


def test_order_infinity_solvers_on_a_deep_caterpillar():
    x = caterpillar(1200)
    y = relabel(x, 2)
    res = ugw_inf_exact(x, y)
    assert res.value == 0.0 and ugh_exact(x, y) == 0.0
    assert [a for a, _ in res.matching] == [(i,) for i in range(x.n)]
    image = [b for _, (b,) in res.matching]
    assert sorted(image) == list(range(x.n))
    assert np.array_equal(y.u[np.ix_(image, image)], x.u)


def test_cli_ingest_and_matrix_on_a_deep_caterpillar(tmp_path, capsys):
    n = 1200
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.nwk").write_text(caterpillar_newick(n) + "\n")
    (corpus / "b.nwk").write_text(caterpillar_newick(1000) + "\n")
    out = tmp_path / "a.json"
    assert cli.main(["ingest", "--newick", str(corpus / "a.nwk"),
                     "--out", str(out)]) == 0
    expect = {"ids": ["t%d" % i for i in range(n)],
              "u": caterpillar_shape(n).tolist(), "mu": [1.0 / n] * n,
              "kind": "ultra_dissimilarity"}
    assert out.read_text() == json.dumps(expect) + "\n"
    assert cli.main(["matrix", "--newick-dir", str(corpus), "--method",
                     "uslb", "--threads", "1"]) == 0
    expect = {"config": {"format": "json", "method": "uslb", "p": "1",
                         "seed": 0, "threads_requested": 1},
              "ids": ["a", "b"],
              "matrix": [[0.0, 336.8834034722173], [336.8834034722173, 0.0]]}
    assert capsys.readouterr().out == json.dumps(expect, indent=2,
                                                 sort_keys=True) + "\n"
