"""Finite ultrametric / ultra-dissimilarity measure spaces.

A space is a symmetric nonnegative dissimilarity matrix u together with a
fully supported probability vector mu.  Ultrametric spaces have zero
diagonal and satisfy the strong triangle inequality
u(x,z) <= max(u(x,y), u(y,z)); ultra-dissimilarity spaces additionally
allow positive self-distances subject to
max(u(x,x), u(y,y)) <= u(x,y) with equality iff x == y.

This module also provides the merge-tree (dendrogram/treegram) view of a
space, level quotients, spectra and the snowflake transform.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np
from scipy.cluster import _hierarchy, hierarchy
from scipy.spatial.distance import squareform

# absolute tolerances for metric comparisons and mass bookkeeping
TAU_METRIC = 1e-9
TAU_MASS = 1e-12


@dataclass(frozen=True)
class UmSpace:
    """Immutable finite measure space with a dissimilarity matrix."""

    ids: tuple
    u: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=float)
        mu = np.array(self.mu, dtype=float)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("u must be a square matrix")
        n = u.shape[0]
        if mu.shape != (n,):
            raise ValueError("mu length does not match u")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(mu))):
            raise ValueError("u and mu must be finite (no NaN or inf)")
        ids = tuple(str(i) for i in self.ids)
        if len(ids) != n:
            raise ValueError("ids length does not match u")
        if np.any(mu <= 0):
            raise ValueError("all masses must be positive")
        if abs(mu.sum() - 1.0) > TAU_MASS:
            raise ValueError("masses must sum to 1")
        u.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "mu", mu)

    @property
    def n(self):
        return self.u.shape[0]

    @cached_property
    def linkage(self):
        """Single linkage of the off-diagonal values (upper triangle; values
        below 0, which are 0 within TAU_METRIC, enter as 0), as a scipy
        (n-1, 4) array; n = 1 has no merges.  Computed once per space."""
        if self.n < 2:
            return np.empty((0, 4))
        off = np.maximum(squareform(self.u, checks=False), 0.0)
        return hierarchy.linkage(off, "single")

    @cached_property
    def levels(self):
        """The off-diagonal values, deduplicated within TAU_METRIC."""
        return dedup_sorted(self.u[~np.eye(self.n, dtype=bool)])

    @cached_property
    def faults(self):
        """The violations of validate in either mode: negative entries,
        asymmetric pairs and strong triangles.  Computed once per space."""
        u, n = self.u, self.n
        bad = [("negative", int(i), int(j))
               for i, j in zip(*np.nonzero(u < -TAU_METRIC))]
        asym = np.triu(np.abs(u - u.T) > TAU_METRIC, 1)
        bad += [("symmetry", int(i), int(j))
                for i, j in zip(*np.nonzero(asym))]
        # strong triangle: u[i,j] <= max(u[i,k], u[k,j]) for all triples.  The
        # single-linkage height of (i, j) is at most max(u[i,k], u[k,j]) for
        # every k, so on an exactly symmetric matrix u <= cophenet + tol proves
        # every triple; only otherwise (or when the linkage read a negative
        # value as 0) are the triples enumerated, a row at a time
        if n > 2 and (bad or u.min() < 0 or not np.array_equal(u, u.T)
                      or np.any(squareform(u, checks=False)
                                > _cophenet(self.linkage, n) + TAU_METRIC)):
            for i in range(n - 1):
                m = np.maximum(u[i][None, :], u.T[i + 1:])  # m[j-i-1,k]
                viol = u[i, i + 1:, None] > m + TAU_METRIC
                for j, k in zip(*np.nonzero(viol)):
                    bad.append(("triangle", i, int(j) + i + 1, int(k)))
        return tuple(bad)

    @cached_property
    def canonical(self):
        """The class keys of _class_ranks (with masses) and the canonical
        leaf order, as point indices.  Computed once per space."""
        keys, rank, tree = _class_ranks(self)
        return keys, np.array(canonical_walk(tree, rank,
                                             self.ids.__getitem__)[1])


@dataclass(frozen=True)
class DendroNode:
    """Node of a merge tree.  Leaves carry a point id; internal nodes carry
    the merge height.  Every node stores the total mass of its leaf set."""

    height: float
    mass: float
    children: tuple = ()
    id: str | None = None

    @property
    def is_leaf(self):
        return len(self.children) == 0

    def leaves(self):
        return leaf_runs(self)[0]


def leaf_runs(root, value=lambda node, parent_value: None):
    """Preorder walk on an explicit stack, value(node, parent_value) giving
    each node's value (parent_value None at the root).  Returns the leaves
    left to right, their values, and per internal node, ancestors first,
    its value and the bounds b0 < ... < bk of its k children's leaf runs."""
    leaves, values, runs = [], [], []
    stack = [(root, value(root, None), [])]
    while stack:
        node, val, bounds = stack.pop()
        bounds.append(len(leaves))  # a child's run starts, or the last ends
        if node is None:
            continue
        if node.children:
            runs.append((val, []))
            stack.append((None, None, runs[-1][1]))
            stack.extend((c, value(c, val), runs[-1][1])
                         for c in reversed(node.children))
        else:
            leaves.append(node)
            values.append(val)
    return leaves, values, runs


def lca_matrix(runs, values):
    """The value of each leaf pair's lowest common ancestor from leaf_runs:
    a node fills the blocks between its children's runs, once per pair."""
    out = np.empty((len(values), len(values)))
    for val, (start, *bounds) in runs:
        for lo, hi in zip(bounds, bounds[1:]):
            out[start:lo, lo:hi] = out[lo:hi, start:lo] = val
    np.fill_diagonal(out, values)
    return out


@dataclass(frozen=True)
class QuotientSpace:
    base: UmSpace
    level: float
    blocks: tuple  # tuple of tuples of base indices
    quotient: UmSpace


@dataclass
class ValidationReport:
    ok: bool
    mode: str
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def _cophenet(z, n):
    """Condensed cophenetic distances of the linkage `z` of n points, from
    the compiled kernel under hierarchy.cophenet.  The public wrapper
    checks the linkage first, which costs about 210 us per call against
    6 us for the kernel at n = 12."""
    out = np.zeros(n * (n - 1) // 2)
    _hierarchy.cophenetic_distances(z, out, n)
    return out


def validate(space, mode="ultrametric"):
    """Check the metric axioms and return a report with violating triples:
    those of UmSpace.faults, then those of the mode's diagonal rule.

    mode "ultrametric" requires a zero diagonal; "ultra_dissimilarity"
    requires max(u(x,x), u(y,y)) <= u(x,y) with equality iff x == y.
    """
    if mode not in ("ultrametric", "ultra_dissimilarity"):
        raise ValueError("unknown mode %r" % mode)
    u, n, bad = space.u, space.n, list(space.faults)
    d = np.diag(u)
    if mode == "ultrametric":
        for i in np.nonzero(np.abs(d) > TAU_METRIC)[0]:
            bad.append(("diagonal", int(i)))
    else:
        iu, ju = np.triu_indices(n, 1)
        births = np.maximum(d[iu], d[ju])
        above = births > u[iu, ju] + TAU_METRIC
        # distinct points must sit strictly above both births
        equal = np.abs(u[iu, ju] - births) <= TAU_METRIC
        for e in np.nonzero(above | equal)[0]:
            if above[e]:
                bad.append(("diagonal", int(iu[e]), int(ju[e])))
            if equal[e]:
                bad.append(("diagonal_equality", int(iu[e]), int(ju[e])))
    return ValidationReport(ok=not bad, mode=mode, violations=bad)


def spectrum(space):
    """Ascending distinct values of u, deduplicated within TAU_METRIC."""
    return dedup_sorted(np.sort(space.u.ravel()))


def dedup_sorted(vals, tol=TAU_METRIC):
    """Anchored dedup of ascending values: each kept value opens a group
    that absorbs every later value within `tol` of it."""
    out = []
    # exact duplicates never open a group, so drop them before the loop
    for v in np.unique(np.asarray(vals, dtype=float)).tolist():
        if not out or v - out[-1] > tol:
            out.append(v)
    return out


def snowflake(space, p):
    """Raise all dissimilarities to the p-th power; preserves ultrametricity."""
    if p < 1:
        raise ValueError("snowflake exponent must be >= 1")
    return UmSpace(space.ids, space.u ** p, space.mu)


def _leaf_order(space):
    """The leaf order of the space's single linkage, each merge's first
    cluster before its second, so that every linkage cluster (points
    0..n-1, then merge r at n + r) is a run start:stop of it; and the merge
    height between each two adjacent leaves.  One top-down pass."""
    n, z = space.n, space.linkage
    size = [1] * n + z[:, 3].astype(int).tolist()
    start, gap = [0] * (2 * n - 1), [0.0] * (n - 1)
    for r, (a, b, h, _) in reversed(list(enumerate(z.tolist()))):
        a, b = int(a), int(b)
        start[a], start[b] = start[n + r], start[n + r] + size[a]
        gap[start[b] - 1] = h
    order = np.empty(n, dtype=int)
    order[start[:n]] = np.arange(n)
    start = np.array(start)
    return order, start, start + size, np.array(gap)


def merge_tree(space, grid=None):
    """Merge tree of the space's single linkage on the ascending level
    `grid` (default: the space's own levels).  A height h sits at the first
    level t with h <= t + TAU_METRIC, the quotient's cut, so the level-k cut
    of the tree gives the blocks of quotient(space, grid[k]); merges at one
    level form one multi-way cluster.  Returns the leaf order and, per
    cluster (points 0..n-1 first, then bottom-up with the root last), the
    index of its level (for a point, that of u[i,i]), its children, and
    the bounds start, stop of its run: its members are order[start:stop]."""
    cut = np.add(space.levels if grid is None else grid, TAU_METRIC)
    n = space.n
    z = space.linkage
    order, start, stop, _ = _leaf_order(space)
    group = np.searchsorted(cut, z[:, 2])
    pair = z[:, :2].astype(int)
    up = np.full(n + len(z), -1)  # the merge consuming each cluster
    up[pair.ravel()] = np.repeat(np.arange(len(z)), 2)
    # a merge folds into its consumer when both sit at one level; the
    # root (consumed by none) is kept
    kept = (up[n:] < 0) | (group[up[n:]] != group)
    rows = np.flatnonzero(kept)
    index = (np.cumsum(kept) + n - 1).tolist()
    kept, pair = kept.tolist(), pair.tolist()
    children = [()] * n
    for r in rows.tolist():
        kids, stack = [], list(pair[r])
        while stack:
            c = stack.pop()
            if c >= n and not kept[c - n]:
                stack.extend(pair[c - n])
            else:
                kids.append(c if c < n else index[c - n])
        children.append(tuple(sorted(kids)))
    level = np.concatenate([np.searchsorted(cut, np.diag(space.u)),
                            group[rows]])
    runs = np.concatenate([np.arange(n), n + rows])
    return order, level, children, start[runs], stop[runs]


def run_sums(tree, w):
    """Per cluster of merge_tree, the sum of the point weights w over its
    run: a difference of one cumulative sum in leaf order."""
    order, _, _, start, stop = tree
    cum = np.concatenate([[0.0], np.cumsum(np.asarray(w)[order])])
    return cum[stop] - cum[start]


def quotient(space, t):
    """Weighted quotient at level t: blocks of u <= t (within TAU_METRIC),
    the runs of the leaf order between adjacent leaves that merge above
    t + TAU_METRIC, ordered by smallest member; masses summed,
    representative distances between blocks, zero diagonal."""
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("level must be finite and nonnegative")
    order, _, _, gap = _leaf_order(space)
    label = np.empty(space.n, dtype=int)
    label[order] = np.cumsum(np.concatenate([[0], gap > t + TAU_METRIC]))
    groups = {}
    for i, lab in enumerate(label.tolist()):
        groups.setdefault(lab, []).append(i)
    blocks = list(groups.values())
    reps = [b[0] for b in blocks]
    qu = np.triu(space.u[np.ix_(reps, reps)], 1)
    qmu = np.array([space.mu[b].sum() for b in blocks])
    ids = ["|".join(space.ids[i] for i in b) for b in blocks]
    qspace = UmSpace(ids, qu + qu.T, qmu / qmu.sum())
    return QuotientSpace(base=space, level=float(t),
                         blocks=tuple(tuple(b) for b in blocks),
                         quotient=qspace)


CANON_QUANT = 1e-9


def canonical_walk(tree, rank, label, cut=-1):
    """The merge_tree cut at level index `cut`, in canonical order.  Its
    leaves are the clusters at or below the cut whose parent lies above
    (at cut = -1 the points), or the root alone; label(c) names each once.
    Each cluster above the cut orders its children stably by (rank, least
    label below); siblings that tie on both, by all labels below, sorted
    (the leaves partition the leaf order, so those form a run).  Returns
    the child order of each cluster (() at and below the cut) and the
    leaves, left to right: two trees ranked alike by class meet leaves of
    one class in step."""
    order, level, children, start, stop = tree
    inner = (len(order) + np.flatnonzero(level[len(order):] > cut)).tolist()
    above = set(inner)  # inner runs bottom-up, children before parents
    leaves = sorted((c for v in inner for c in children[v] if c not in above),
                    key=start.tolist().__getitem__) or [len(level) - 1]
    labels = [label(c) for c in leaves]
    lo, hi = np.searchsorted(start[leaves], [start, stop]).tolist()
    low = dict(zip(leaves, labels))
    ordered = [()] * len(level)
    for v in inner:
        key = {c: (rank[c], low[c]) for c in children[v]}
        if len(set(key.values())) < len(key):  # a tie: rare, Counter slow
            tied = Counter(key.values())
            key = {c: k + (tuple(sorted(labels[lo[c]:hi[c]])),)
                   if tied[k] > 1 else k for c, k in key.items()}
        ordered[v] = tuple(sorted(children[v], key=key.__getitem__))
        low[v] = min(low[c] for c in children[v])
    walk, stack = [], [len(level) - 1]
    while stack:
        v = stack.pop()
        stack.extend(reversed(ordered[v]))
        if not ordered[v]:
            walk.append(v)
    return ordered, walk


def _class_ranks(space, with_mass=True):
    """One bottom-up pass over merge_tree(space), without recursion, that
    ranks every cluster by its isomorphism class (canonical names after Aho,
    Hopcroft and Ullman 1974).  Points are ranked first, by (height, mass),
    then each level, ascending, by (height, mass, sorted child ranks), all
    quantised at CANON_QUANT; masses are run_sums.  A child sits at a lower
    level than its parent, so its rank is final first; levels lie more than
    TAU_METRIC apart, so ranks follow the order of nested signature tuples.
    Returns the class keys in rank order, the ranks and the tree.  Where
    two spaces have equal keys, pairing their canonical_walk leaves position
    by position is an isomorphism, heights and masses equal at CANON_QUANT."""
    tree = merge_tree(space)
    _, level, children, _, _ = tree
    n = space.n
    height = np.diag(space.u).tolist() + [space.levels[k] for k in level[n:]]
    mass = run_sums(tree, space.mu).tolist()
    rank, keys = [], []  # the groups come in cluster order
    for _, group in groupby(range(len(children)),
                            lambda v: -1 if v < n else level[v]):
        names = [(round(height[v] / CANON_QUANT),
                  round(mass[v] / CANON_QUANT) if with_mass else None)
                 + ((tuple(sorted(rank[c] for c in children[v])),)
                    if children[v] else ()) for v in group]
        table = sorted(set(names))
        index = {name: len(keys) + r for r, name in enumerate(table)}
        keys += table
        rank += [index[name] for name in names]
    return tuple(keys), rank, tree


def canonical_signature(tree, with_mass=True):
    """Order-invariant signature of the merge tree of a space, or of a
    DendroNode read as the space of its leaves (from_dendrogram): the flat
    tuple of the class keys of _class_ranks in rank order (masses None
    unless with_mass).  Two trees get equal signatures iff they are
    isomorphic with matching heights (and masses) at CANON_QUANT."""
    if isinstance(tree, DendroNode):
        tree = from_dendrogram(tree)
    return _class_ranks(tree, with_mass)[0]


def to_dendrogram(space):
    """Merge tree of the space as DendroNodes: leaves born at u[i,i], one
    node per merge level of the own off-diagonal spectrum, children in the
    canonical_walk order of the class ranks and point ids, a node's mass
    summed over them in that order.  LCA heights reproduce u exactly."""
    _, rank, tree = _class_ranks(space)
    ordered = canonical_walk(tree, rank, space.ids.__getitem__)[0]
    nodes = [DendroNode(h, m, id=i) for h, m, i in zip(
        np.diag(space.u).tolist(), space.mu.tolist(), space.ids)]
    for k, kids in zip(tree[1][space.n:], ordered[space.n:]):
        kids = tuple(nodes[c] for c in kids)
        nodes.append(DendroNode(space.levels[k], float(sum(
            c.mass for c in kids)), kids))
    return nodes[-1]


def from_dendrogram(root):
    """Inverse of to_dendrogram: LCA heights give u, leaf data give mu/ids."""
    leaves, heights, runs = leaf_runs(root, lambda node, _: node.height)
    return UmSpace([l.id for l in leaves], lca_matrix(runs, heights),
                   [l.mass for l in leaves])


# ---------------------------------------------------------------------------
# JSON wire formats

def space_to_json(space, kind=None):
    obj = {"ids": list(space.ids), "u": space.u.tolist(), "mu": space.mu.tolist()}
    if kind is not None:
        obj["kind"] = kind
    return obj


def space_from_json(obj):
    return UmSpace(obj["ids"], np.array(obj["u"], dtype=float),
                   np.array(obj["mu"], dtype=float))


def load_space(path):
    with open(path) as f:
        return space_from_json(json.load(f))


def save_space(space, path, kind=None):
    with open(path, "w") as f:
        json.dump(space_to_json(space, kind=kind), f)
        f.write("\n")


def dendro_to_json(node):
    """Flat JSON object of a dendrogram: its nodes in preorder, each with
    the index of its parent (None at the root), its height and mass, and a
    leaf with its id.  Written on an explicit stack, so any depth fits."""
    nodes, stack = [], [(node, None)]
    while stack:
        node, parent = stack.pop()
        stack.extend((c, len(nodes)) for c in reversed(node.children))
        nodes.append({"parent": parent, "h": node.height, "mass": node.mass})
        if node.is_leaf:
            nodes[-1]["id"] = node.id
    return {"nodes": nodes}


def dendro_from_json(obj):
    """Inverse of dendro_to_json: a node's children follow it in preorder,
    so one pass from the last node builds every node after its children."""
    nodes = obj["nodes"]
    kids = [[] for _ in nodes]
    for i in reversed(range(len(nodes))):
        d = nodes[i]
        node = DendroNode(float(d["h"]), float(d["mass"]),
                          tuple(reversed(kids[i])), d.get("id"))
        if d["parent"] is not None:
            kids[d["parent"]].append(node)
    return node
