"""The single-linkage merge tree behind quotients, dendrograms and validate,
checked against the earlier per-level builders (copied here as oracles) at
sizes beyond brute force."""

import json

import numpy as np
from scipy.cluster.hierarchy import cophenet
from scipy.spatial.distance import squareform

from conftest import rand_tree, rand_ultrametric, tied_ultrametric
from ultragw import (UmSpace, canonical_signature, dendro_to_json, perturb,
                     quotient, spectrum, to_dendrogram, treegram, ugh_exact,
                     ugw_inf_exact, validate, w_ultrametric)
from ultragw.phylo import tree_shape_space
from ultragw.spaces import (CANON_QUANT, TAU_MASS, TAU_METRIC, DendroNode,
                            dedup_sorted, merge_tree, run_sums)


# ---------------------------------------------------------------------------
# oracles: the builders that read u directly, level by level


def _validate_oracle(space, mode):
    """Dense n^3 triple enumeration and Python pair loops."""
    u = space.u
    n = space.n
    bad = []
    if np.any(u < -TAU_METRIC):
        for i, j in zip(*np.nonzero(u < -TAU_METRIC)):
            bad.append(("negative", int(i), int(j)))
    asym = np.abs(u - u.T) > TAU_METRIC
    for i, j in zip(*np.nonzero(np.triu(asym, 1))):
        bad.append(("symmetry", int(i), int(j)))
    m = np.maximum(u[:, None, :], u.T[None, :, :])  # m[i,j,k]
    viol = u[:, :, None] > m + TAU_METRIC
    for i, j, k in zip(*np.nonzero(viol)):
        if i < j:
            bad.append(("triangle", int(i), int(j), int(k)))
    d = np.diag(u)
    if mode == "ultrametric":
        for i in np.nonzero(np.abs(d) > TAU_METRIC)[0]:
            bad.append(("diagonal", int(i)))
    else:
        for i in range(n):
            for j in range(i + 1, n):
                if max(d[i], d[j]) > u[i, j] + TAU_METRIC:
                    bad.append(("diagonal", int(i), int(j)))
                if abs(u[i, j] - max(d[i], d[j])) <= TAU_METRIC:
                    bad.append(("diagonal_equality", int(i), int(j)))
    return bad


def _blocks_oracle(u, t, tol=TAU_METRIC):
    """Connected components of u <= t + tol by union-find, ordered by
    smallest member."""
    n = u.shape[0]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if u[i, j] <= t + tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(b) for b in sorted(groups.values()))


def _signature_oracle(node, with_mass=True, quant=CANON_QUANT):
    """Recursive order-invariant signature of a merge tree: nested
    ("leaf", height, mass) and ("node", height, mass, sorted children)
    tuples."""
    if isinstance(node, UmSpace):
        node = _dendrogram_oracle(node)
    qh = int(round(node.height / quant))
    qm = int(round(node.mass / quant)) if with_mass else None
    if node.is_leaf:
        return ("leaf", qh, qm)
    kids = tuple(sorted(_signature_oracle(c, with_mass, quant)
                        for c in node.children))
    return ("node", qh, qm, kids)


def _dendrogram_oracle(space):
    """Blocks rebuilt at every off-diagonal spectrum level."""
    n = space.n
    nodes = [DendroNode(height=float(space.u[i, i]), mass=float(space.mu[i]),
                        id=space.ids[i]) for i in range(n)]
    cluster = {i: (nodes[i], [i]) for i in range(n)}
    offdiag = space.u[~np.eye(n, dtype=bool)]
    levels = dedup_sorted(np.sort(offdiag)) if n > 1 else []
    for t in levels:
        if len(cluster) == 1:
            break
        blocks = _blocks_oracle(space.u, t)
        merged = {}
        for members in blocks:
            inside = [key for key in cluster if cluster[key][1][0] in members]
            if len(inside) >= 2:
                kids = [cluster[key][0] for key in inside]
                kids.sort(key=lambda c: (_signature_oracle(c), tuple(
                    sorted(l.id for l in c.leaves()))))
                node = DendroNode(height=float(t),
                                  mass=float(sum(c.mass for c in kids)),
                                  children=tuple(kids))
                merged[min(inside)] = (node, list(members))
                for key in inside:
                    del cluster[key]
        cluster.update(merged)
    (root, _), = cluster.values()
    return root


def _merge_tree_oracle(space, grid=None):
    """The earlier builder, keeping every cluster's sorted members and mass.
    Merge tree of the space's single linkage on the ascending level
    `grid` (default: the space's own levels).  A height h sits at the first
    level t with h <= t + TAU_METRIC, the quotient's cut, so the level-k cut
    of the tree gives the blocks of quotient(space, grid[k]); merges at one
    level form one multi-way cluster.  Returns, per cluster (points 0..n-1
    first, then bottom-up with the root last), the index of its level (for
    a point, that of u[i,i]), its children, its sorted members and its
    mass."""
    cut = np.add(space.levels if grid is None else grid, TAU_METRIC)
    n = space.n
    z = space.linkage
    group = np.searchsorted(cut, z[:, 2])
    pair = z[:, :2].astype(int)
    up = np.full(n + len(z), -1)  # the merge consuming each cluster
    up[pair.ravel()] = np.repeat(np.arange(len(z)), 2)
    # a merge folds into its consumer when both sit at one level; the
    # root (consumed by none) is kept
    kept = ((up[n:] < 0) | (group[up[n:]] != group)).tolist()
    index = (np.cumsum(kept) + n - 1).tolist()
    pair = pair.tolist()
    children, members = [()] * n, list(np.arange(n)[:, None])
    for r in np.nonzero(kept)[0].tolist():
        kids, stack = [], list(pair[r])
        while stack:
            c = stack.pop()
            if c >= n and not kept[c - n]:
                stack.extend(pair[c - n])
            else:
                kids.append(c if c < n else index[c - n])
        children.append(tuple(sorted(kids)))
        members.append(np.sort(np.concatenate([members[c] for c in kids])))
    level = np.concatenate([np.searchsorted(cut, np.diag(space.u)),
                            group[np.array(kept, dtype=bool)]])
    return (level, children, [tuple(m.tolist()) for m in members],
            [space.mu[m].sum() for m in members])


def _w_ultrametric_oracle(space, alpha, beta, p):
    """The earlier closed form, summing alpha and beta over every
    cluster's member tuple of _merge_tree_oracle."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    # one term per cluster C below the root of the merge tree: its parent's
    # height and the mass alpha(C) - beta(C) that has to leave or enter it
    level, children, members, _ = _merge_tree_oracle(space)
    height = np.concatenate([np.diag(space.u),
                             np.array(space.levels)[level[space.n:]]])
    child, parent = np.array([(c, v) for v, kids in enumerate(children)
                              for c in kids], dtype=int).reshape(-1, 2).T
    gap = np.abs([alpha[list(m)].sum() - beta[list(m)].sum()
                  for m in members])[child]
    if p == np.inf:
        return float(height[parent][gap > TAU_MASS].max(initial=0.0))
    acc = float(((height[parent] ** p - height[child] ** p) * gap).sum())
    return (0.5 * acc) ** (1.0 / p)


def _match_blocks_oracle(spaces, trees, k, names):
    """Pair the points (blocks) of two isomorphic level-k quotients by
    walking children in id order, ties broken by the full sorted tuple of
    the blocks' point ids below each child, rebuilt recursively."""
    def order(s, tree, name, v):
        level, children, members, _ = tree

        def block_ids(c):
            if level[c] <= k:
                return ("|".join(s.ids[i] for i in members[c]),)
            return tuple(sorted(i for d in children[c] for i in block_ids(d)))
        return sorted(children[v], key=lambda c: (name[c], block_ids(c)))

    (lx, cx, mx, _), (_, cy, my, _) = trees
    sx, sy = zip(spaces, trees, names)
    pairs, stack = [], [(len(cx) - 1, len(cy) - 1)]
    while stack:
        a, b = stack.pop()
        if lx[a] <= k:
            pairs.append((mx[a], my[b]))
        else:
            stack.extend(zip(order(*sx, a), order(*sy, b)))
    return sorted(pairs)


def _sweep_oracle(X, Y, with_mass=True):
    """The order-infinity value (and the matching, with masses) by a sweep
    of every level downward: keys numbered in one table shared by all
    levels, stopping at the first level whose quotients differ."""
    grid = dedup_sorted(np.maximum(spectrum(X) + spectrum(Y), 0.0))
    trees = [_merge_tree_oracle(s, grid) for s in (X, Y)]
    ids = {}
    mass = [[int(round(m / CANON_QUANT)) if with_mass else None
             for m in t[3]] for t in trees]
    points = [[ids.setdefault(("point", q), len(ids)) for q in qm]
              for qm in mass]
    passing = None
    for k in reversed(range(len(grid))):
        names = [list(p) for p in points]
        for (level, children, _, _), qm, name in zip(trees, mass, names):
            for v in np.nonzero(level > k)[0].tolist():
                kids = tuple(sorted(name[c] for c in children[v]))
                name[v] = ids.setdefault((level[v], qm[v], kids), len(ids))
        if names[0][-1] != names[1][-1]:
            assert passing is not None
            break
        passing, last = float(grid[k]), (k, names)
    if not with_mass:
        return passing, None
    return passing, _match_blocks_oracle((X, Y), trees, *last)


# ---------------------------------------------------------------------------
# inputs


def _tree_space(rng, lo=2, hi=30):
    while True:
        space = tree_shape_space(rand_tree(rng))
        if lo <= space.n <= hi:
            return space


def _valid_spaces(rng, count, max_n=30):
    out = []
    for k in range(count):
        n = int(rng.integers(2, max_n + 1))
        kind = k % 4
        if kind == 0:
            out.append(rand_ultrametric(rng, n))
        elif kind == 1:
            out.append(tied_ultrametric(rng, n))
        elif kind == 2:
            out.append(tied_ultrametric(rng, n, jitter=0.4 * TAU_METRIC))
        else:
            out.append(_tree_space(rng, hi=max_n))
    return out


def _broken(rng, space):
    """A copy of the space with one kind of defect."""
    u = np.array(space.u)
    n = space.n
    i, j = (int(v) for v in rng.integers(0, n, size=2))
    kind = int(rng.integers(0, 5))
    if kind == 0:  # random symmetric matrix
        m = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
        u = m + m.T
    elif kind == 1:  # asymmetric entries
        noise = rng.uniform(0.0, 1e-8, size=(n, n))
        u = u + noise * (rng.random((n, n)) < 0.3)
    elif kind == 2:  # a negative entry
        u[i, j] = -0.5
    elif kind == 3:  # one pair moved off the ultrametric
        u[i, j] = u[j, i] = u[i, j] * rng.uniform(0.3, 1.7) + 1e-10
    else:  # positive births
        np.fill_diagonal(u, rng.uniform(0.0, 0.5, size=n)
                         * (rng.random(n) < 0.5))
    return UmSpace(space.ids, u, space.mu)


# ---------------------------------------------------------------------------
# validate


def test_validate_matches_oracle(rng):
    spaces = _valid_spaces(rng, 80)
    spaces += [_broken(rng, x) for x in _valid_spaces(rng, 120)]
    assert sum(not validate(x).ok for x in spaces) > 100
    for x in spaces:
        for mode in ("ultrametric", "ultra_dissimilarity"):
            rep = validate(x, mode)
            oracle = _validate_oracle(x, mode)
            assert rep.violations == oracle
            assert rep.ok == (not oracle)


def test_validate_tolerance_chain_takes_triple_enumeration():
    a, b = 1.0 + 6e-10, 1.0 + 1.5e-9
    u = np.array([[0, 1, a, b], [1, 0, 1, a], [a, 1, 0, 1], [b, a, 1, 0.]])
    x = UmSpace(list("abcd"), u, np.full(4, 0.25))
    # u[0,3] sits more than the tolerance above its single-linkage height,
    # so the O(n^2) check cannot pass it, but every triple holds
    assert u[0, 3] - squareform(cophenet(x.linkage))[0, 3] > TAU_METRIC
    for mode in ("ultrametric", "ultra_dissimilarity"):
        rep = validate(x, mode)
        assert rep.ok and rep.violations == [] == _validate_oracle(x, mode)


def test_validate_asymmetry_within_tolerance():
    # u[2,1] sits below u[1,2] by less than the tolerance, so no symmetry
    # violation is reported, but the triple (0, 1, 2) fails through it
    # while the upper triangle alone passes the cophenetic check
    u = np.array([[0, 1 + 1.5e-9, 1], [1 + 1.5e-9, 0, 1 + 0.9e-9],
                  [1, 1, 0.]])
    x = UmSpace(list("abc"), u, np.full(3, 1 / 3))
    rep = validate(x)
    assert rep.violations == [("triangle", 0, 1, 2)] == _validate_oracle(
        x, "ultrametric")


# ---------------------------------------------------------------------------
# quotients and dendrograms


def test_quotient_blocks_match_union_find(rng):
    spaces = [rand_ultrametric(rng, 60), tied_ultrametric(rng, 60),
              tied_ultrametric(rng, 45, jitter=0.4 * TAU_METRIC),
              _tree_space(rng, lo=10, hi=60)]
    spaces += _valid_spaces(rng, 16)
    for x in spaces:
        ts = []
        for s in spectrum(x):
            ts += [s, s + 0.5 * TAU_METRIC, max(s - 0.5 * TAU_METRIC, 0.0)]
        ts += list(rng.uniform(0.0, 1.2 * x.u.max(), size=10))
        for t in ts:
            q = quotient(x, t)
            blocks = _blocks_oracle(x.u, t)
            assert q.blocks == blocks
            reps = [b[0] for b in blocks]
            expect = x.u[np.ix_(reps, reps)] * (1 - np.eye(len(reps)))
            assert np.array_equal(q.quotient.u, expect)


def test_run_tree_matches_oracle(rng):
    # 300 random, tied and jittered spaces, 100 tree shapes, one point
    spaces = _valid_spaces(rng, 400)
    spaces.append(UmSpace(["a"], np.zeros((1, 1)), [1.0]))
    assert sum(np.any(np.diag(x.u) > 0) for x in spaces) > 50
    for x, y in zip(spaces, spaces[1:] + spaces[:1]):
        merged = dedup_sorted(np.maximum(spectrum(x) + spectrum(y), 0.0))
        for grid in (None, merged):
            tree = merge_tree(x, grid)
            order, level, children, start, stop = tree
            o_level, o_children, o_members, o_mass = _merge_tree_oracle(x,
                                                                        grid)
            assert sorted(order.tolist()) == list(range(x.n))
            assert np.array_equal(level, o_level) and children == o_children
            assert [tuple(sorted(order[a:b].tolist()))
                    for a, b in zip(start, stop)] == o_members
            assert np.max(np.abs(run_sums(tree, x.mu) - o_mass)) <= 1e-15


def test_w_ultrametric_matches_oracle(rng):
    spaces = [x for x in _valid_spaces(rng, 160) if not np.any(np.diag(x.u))]
    assert len(spaces) > 100
    for x in spaces:
        a, b = rng.dirichlet(np.ones(x.n)), rng.dirichlet(np.ones(x.n))
        if rng.random() < 0.5:  # a charges only some of the points
            a = np.where(rng.random(x.n) < 0.3, 0.0, a)
            a[0] += 1.0 - a.sum()
        assert abs(a.sum() - b.sum()) <= TAU_MASS
        for p in (1, 2, 3.5, np.inf):
            want = _w_ultrametric_oracle(x, a, b, p)
            assert abs(w_ultrametric(x, a, b, p) - want) <= 1e-12 * want


def test_dendrogram_json_matches_oracle(rng):
    spaces = _valid_spaces(rng, 60)
    assert any(np.any(np.diag(x.u) > 0) for x in spaces)  # tree shapes
    for x in spaces:
        got = json.dumps(dendro_to_json(to_dendrogram(x)))
        assert got == json.dumps(dendro_to_json(_dendrogram_oracle(x)))


# ---------------------------------------------------------------------------
# negative distances within the tolerance


def _twins(rng, n):
    """Each point of a random ultrametric doubled, twins at a distance
    below 0 but within TAU_METRIC; also the same space with twins at 0."""
    x = rand_ultrametric(rng, n)
    idx = np.repeat(np.arange(n), 2)
    u = x.u[np.ix_(idx, idx)]
    r = np.zeros((2 * n, 2 * n))
    r[0::2, 1::2] = np.diag(rng.uniform(0.1, 0.9, size=n) * TAU_METRIC)
    ids = ["x%d" % k for k in range(2 * n)]
    mu = x.mu[idx] / 2
    return UmSpace(ids, u - r - r.T, mu), UmSpace(ids, u, mu)


def test_negative_within_tolerance_is_zero():
    u = np.array([[0, -5e-10, 1], [-5e-10, 0, 1], [1, 1, 0.]])
    x = UmSpace(list("abc"), u, np.full(3, 1 / 3))
    for mode in ("ultrametric", "ultra_dissimilarity"):
        assert validate(x, mode).violations == _validate_oracle(x, mode)
    assert validate(x).ok
    for t in (0.0, 0.5, 1.0):
        assert quotient(x, t).blocks == _blocks_oracle(u, t)
    assert (json.dumps(dendro_to_json(to_dendrogram(x)))
            == json.dumps(dendro_to_json(_dendrogram_oracle(x))))
    y = UmSpace(list("abc"), np.abs(u), x.mu)
    res = ugw_inf_exact(x, y)
    assert res.value == 0.0 and ugh_exact(x, y) == 0.0
    assert res.matching == [((0, 1), (0, 1)), ((2,), (2,))]
    # read as 0 by the linkage, the negative entries would hide this triple
    a, b = -5e-10, 9e-10
    z = UmSpace(list("abc"), np.array([[0, a, b], [a, 0, a], [b, a, 0.]]),
                np.full(3, 1 / 3))
    assert validate(z).violations == [("triangle", 0, 2, 1)] == \
        _validate_oracle(z, "ultrametric")


def test_negative_within_tolerance_matches_oracles(rng):
    for n in (2, 5, 20):
        x, y = _twins(rng, n)
        assert np.any(x.u < 0)
        for mode in ("ultrametric", "ultra_dissimilarity"):
            assert validate(x, mode).violations == _validate_oracle(x, mode)
        assert validate(x).ok
        for t in spectrum(y):
            assert quotient(x, t).blocks == _blocks_oracle(x.u, t)
        assert (json.dumps(dendro_to_json(to_dendrogram(x)))
                == json.dumps(dendro_to_json(_dendrogram_oracle(x))))
        res = ugw_inf_exact(x, y)
        assert res.value == 0.0 and ugh_exact(x, y) == 0.0
        assert res.matching == [(b, b) for b in quotient(x, 0.0).blocks]


# ---------------------------------------------------------------------------
# class ranks: signatures and the order-infinity matching


def _relabel(rng, x, ids=None):
    perm = rng.permutation(x.n)
    ids = [x.ids[i] for i in perm] if ids is None else ids
    return UmSpace(ids, x.u[np.ix_(perm, perm)], x.mu[perm])


def _uniform(x, ids=None):
    """The space with uniform masses (so that siblings tie on their names),
    and optionally other ids."""
    return UmSpace(x.ids if ids is None else ids, x.u, np.full(x.n, 1 / x.n))


def _odd_ids(rng, n):
    """Ids with duplicates and '|', so that the smallest block id below two
    siblings can be the same."""
    return [str(rng.choice(["a", "b", "a|b", "b|a", ""])) for _ in range(n)]


def _ultrametric_pairs(rng, count):
    """Seeded pairs: relabelled and perturbed copies of random, tied and
    TAU_METRIC-jittered ultrametrics, many with uniform masses or odd ids."""
    pairs = []
    while len(pairs) < count:
        n = int(rng.integers(2, 25))
        kind = len(pairs) % 4
        x = (rand_ultrametric(rng, n) if kind == 0 else
             tied_ultrametric(rng, n, jitter=(0.0, 0.4, 0.9)[kind - 1]
                              * TAU_METRIC))
        if rng.random() < 0.6:
            x = _uniform(x, _odd_ids(rng, n) if rng.random() < 0.3 else None)
        pairs.append((x, _relabel(rng, x)))
        t = float(rng.uniform(0.1, 1.0)) * x.u.max()
        pairs.append((x, perturb(x, t, seed=int(rng.integers(1 << 30)))))
    return pairs


def test_ugw_inf_matching_matches_oracle(rng):
    pairs = _ultrametric_pairs(rng, 240)
    assert sum(len(set(x.ids)) < x.n for x, _ in pairs) > 10
    for x, y in pairs:
        res = ugw_inf_exact(x, y)
        assert (res.value, res.matching) == _sweep_oracle(x, y)
        assert ugh_exact(x, y) == _sweep_oracle(x, y, with_mass=False)[0]


def test_signature_equality_matches_oracle(rng):
    base = _valid_spaces(rng, 24, max_n=12)
    base += [_uniform(tied_ultrametric(rng, int(rng.integers(2, 12))))
             for _ in range(12)]
    corpus = base + [_relabel(rng, x, ["q%d" % i for i in range(x.n)])
                     for x in base]
    corpus += [_uniform(x) for x in base[:12]]
    for with_mass in (True, False):
        new = [canonical_signature(x, with_mass) for x in corpus]
        old = [_signature_oracle(x, with_mass) for x in corpus]
        same = [[a == b for b in old] for a in old]
        assert [[a == b for b in new] for a in new] == same
        assert sum(map(sum, same)) > 2 * len(corpus)
    for x in corpus:
        assert canonical_signature(treegram(x)) == canonical_signature(x)


def test_tie_breaks_match_oracles_on_odd_ids(rng):
    # the two children of the root share their class and smallest leaf id,
    # so only their other leaf ids order them
    u = np.array([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0.]])
    x = UmSpace(["a", "c", "a", "b"], u, np.full(4, 0.25))
    kids = to_dendrogram(x).children
    assert [[l.id for l in c.children] for c in kids] == [["a", "b"],
                                                          ["a", "c"]]
    # the same tie between blocks of two points: x matches y only at 0.1
    u = np.kron(u, np.ones((2, 2))) + np.kron(np.eye(4), [[0, .1], [.1, 0]])
    x2 = UmSpace(list("axcyaxby"), u, np.full(8, 1 / 8))
    y2 = _relabel(rng, UmSpace(x2.ids, np.where(u == .1, .05, u), x2.mu))
    res = ugw_inf_exact(x2, y2)
    assert res.value == 0.1 and (res.value, res.matching) == _sweep_oracle(
        x2, y2)
    spaces = [x]
    for _ in range(300):
        n = int(rng.integers(2, 20))
        spaces.append(_uniform(tied_ultrametric(rng, n), _odd_ids(rng, n)))
    for x in spaces:
        assert (json.dumps(dendro_to_json(to_dendrogram(x)))
                == json.dumps(dendro_to_json(_dendrogram_oracle(x))))
        y = _relabel(rng, x)
        res = ugw_inf_exact(x, y)
        assert (res.value, res.matching) == _sweep_oracle(x, y)
