import numpy as np
import pytest

from conftest import rand_tree
from ultragw import (NewickError, PhyloNode, canonical_signature,
                     from_dendrogram, parse_newick, parse_newick_multi,
                     tree_shape_space, treegram, validate, write_newick)


def test_parse_simple():
    t = parse_newick("(A,B);")
    assert [c.label for c in t.children] == ["A", "B"]
    assert all(c.is_tip for c in t.children)


def test_parse_lengths_and_internal_labels():
    t = parse_newick("((A:1,B:1)ab:1,C:2)root;")
    assert t.label == "root"
    ab = t.children[0]
    assert ab.label == "ab" and ab.length == 1.0
    assert ab.children[0].length == 1.0
    assert t.children[1].label == "C" and t.children[1].length == 2.0


def test_parse_quoted_and_comments():
    t = parse_newick("('a b''c'[a comment]:1.5,B)[trailing];")
    assert t.children[0].label == "a b'c"
    assert t.children[0].length == 1.5


def test_parse_errors_carry_positions():
    with pytest.raises(NewickError) as exc:
        parse_newick("((A,B);")
    assert "line 1" in str(exc.value)
    with pytest.raises(NewickError):
        parse_newick("(A,B); junk")
    with pytest.raises(NewickError):
        parse_newick("(A:x,B);")
    with pytest.raises(NewickError) as exc:
        parse_newick("(A,\n(B,(C);\n);")
    assert exc.value.line >= 2


def test_round_trip_identity():
    s = "(A,(B,(C,D)));"
    assert write_newick(parse_newick(s)) == s


def test_round_trip_random_trees(rng):
    for lengths in (False, True):
        for _ in range(60):
            t = rand_tree(rng, lengths=lengths)
            s = write_newick(t)
            assert write_newick(parse_newick(s)) == s


def test_multi_tree_parsing():
    trees = parse_newick_multi("(A,B);\n(C,(D,E));")
    assert len(trees) == 2


def test_caterpillar_space():
    space = tree_shape_space(parse_newick("(((A,B),C),D);"))
    assert space.ids == ("A", "B", "C", "D")
    expect = np.array([[0, 1, 2, 3],
                       [1, 0, 2, 3],
                       [2, 2, 1, 3],
                       [3, 3, 3, 2.]])
    assert np.array_equal(space.u, expect)
    assert np.allclose(space.mu, 0.25)


def test_balanced_space():
    space = tree_shape_space(parse_newick("((A,B),(C,D));"))
    expect = np.array([[0, 1, 2, 2],
                       [1, 0, 2, 2],
                       [2, 2, 0, 1],
                       [2, 2, 1, 0.]])
    assert np.array_equal(space.u, expect)


def _oracle_u(tree, unit_edges):
    """u from parent pointers: walk up from one tip until an ancestor of
    the other is met."""
    parent, depth, stack = {}, {id(tree): 0.0}, [tree]
    while stack:
        node = stack.pop()
        for c in node.children:
            parent[id(c)] = node
            depth[id(c)] = depth[id(node)] + (1.0 if unit_edges
                                              else float(c.length))
            stack.append(c)
    tips = tree.tips()
    d = max(depth[id(t)] for t in tips)
    u = np.empty((len(tips), len(tips)))
    for i, a in enumerate(tips):
        ancestors = {id(a)}
        while id(a) in parent:
            a = parent[id(a)]
            ancestors.add(id(a))
        for j, b in enumerate(tips):
            while id(b) not in ancestors:
                b = parent[id(b)]
            u[i, j] = d - depth[id(b)]
    return u


def _caterpillar(n, rng):
    node = PhyloNode(label="t0", length=1.5)
    for k in range(1, n):
        tip = PhyloNode(label="t%d" % k, length=float(rng.uniform(0, 2)))
        node = PhyloNode(length=float(rng.uniform(0, 2)),
                         children=[node, tip])
    return node


def _balanced(depth, rng):
    if depth == 0:
        return PhyloNode(label="t", length=float(rng.uniform(0, 2)))
    return PhyloNode(length=float(rng.uniform(0, 2)),
                     children=[_balanced(depth - 1, rng) for _ in range(2)])


def test_lca_depths_match_parent_pointer_oracle(rng):
    trees = [rand_tree(rng, lengths=True) for _ in range(60)]
    trees += [_caterpillar(n, rng) for n in (1, 2, 3, 17)]
    trees += [_balanced(k, rng) for k in (1, 2, 5)]
    trees.append(parse_newick("(((A:1,B:2):0.5):0.25,C:3);"))  # unary node
    for tree in trees:
        for unit_edges in (True, False):
            space = tree_shape_space(tree, unit_edges=unit_edges)
            assert np.array_equal(space.u, _oracle_u(tree, unit_edges))


def test_single_tip():
    space = tree_shape_space(parse_newick("A;"))
    assert space.n == 1 and space.u[0, 0] == 0.0 and space.mu[0] == 1.0


def test_weighted_lengths_mode():
    space = tree_shape_space(parse_newick("((A:1,B:2):1,C:4);"),
                             unit_edges=False)
    # depths: A=2, B=3, C=4; d=4
    assert space.u[0, 0] == 2.0 and space.u[1, 1] == 1.0 and space.u[2, 2] == 0.0
    assert space.u[0, 1] == 3.0 and space.u[0, 2] == 4.0
    with pytest.raises(ValueError):
        tree_shape_space(parse_newick("(A,B:1);"), unit_edges=False)


def test_length_weighted_measure():
    space = tree_shape_space(parse_newick("(A:1,B:3);"), unit_edges=False,
                             measure="length-weighted")
    assert np.allclose(space.mu, [0.25, 0.75])
    with pytest.raises(ValueError):
        tree_shape_space(parse_newick("(A,B);"), measure="length-weighted")


def test_random_trees_pass_dissimilarity_validation(rng):
    for _ in range(25):
        t = rand_tree(rng)
        space = tree_shape_space(t)
        if space.n > 64:
            continue
        assert validate(space, "ultra_dissimilarity").ok
        # deepest tip is born at height 0 and diam equals the tree depth
        assert np.min(np.diag(space.u)) == 0.0


def test_label_blindness(rng):
    t = rand_tree(rng)
    space = tree_shape_space(t)
    perm = rng.permutation(space.n)
    from ultragw import UmSpace
    relabeled = UmSpace(["q%d" % i for i in range(space.n)],
                        space.u[np.ix_(perm, perm)], space.mu[perm])
    assert canonical_signature(treegram(space)) == \
        canonical_signature(treegram(relabeled))


def test_treegram_round_trip(rng):
    space = tree_shape_space(parse_newick("(((A,B),C),D);"))
    g = treegram(space)
    births = sorted(l.height for l in g.leaves())
    assert births == [0.0, 0.0, 1.0, 2.0]
    back = from_dendrogram(g)
    perm = [back.ids.index(i) for i in space.ids]
    assert np.array_equal(back.u[np.ix_(perm, perm)], space.u)
    assert np.array_equal(back.mu[perm], space.mu)


def test_treegram_ultrametric_input(rng):
    from conftest import rand_ultrametric
    x = rand_ultrametric(rng, 5)
    g = treegram(x)
    assert all(l.height == 0.0 for l in g.leaves())
