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
    """Check the metric axioms and return a report with violating triples.

    mode "ultrametric" requires a zero diagonal; "ultra_dissimilarity"
    requires max(u(x,x), u(y,y)) <= u(x,y) with equality iff x == y.
    """
    if mode not in ("ultrametric", "ultra_dissimilarity"):
        raise ValueError("unknown mode %r" % mode)
    u = space.u
    n = space.n
    bad = [("negative", int(i), int(j))
           for i, j in zip(*np.nonzero(u < -TAU_METRIC))]
    asym = np.triu(np.abs(u - u.T) > TAU_METRIC, 1)
    bad += [("symmetry", int(i), int(j)) for i, j in zip(*np.nonzero(asym))]
    # strong triangle: u[i,j] <= max(u[i,k], u[k,j]) for all triples.  The
    # single-linkage height of (i, j) is at most max(u[i,k], u[k,j]) for
    # every k, so on an exactly symmetric matrix u <= cophenet + tol proves
    # every triple; only otherwise (or when the linkage read a negative
    # value as 0) are the triples enumerated, a row at a time
    if n > 2 and (bad or u.min() < 0 or not np.array_equal(u, u.T)
                  or np.any(squareform(u, checks=False)
                            > _cophenet(space.linkage, n) + TAU_METRIC)):
        for i in range(n - 1):
            m = np.maximum(u[i][None, :], u.T[i + 1:])  # m[j-i-1,k]
            viol = u[i, i + 1:, None] > m + TAU_METRIC
            for j, k in zip(*np.nonzero(viol)):
                bad.append(("triangle", i, int(j) + i + 1, int(k)))
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


def sibling_order(kids, name, low, ids, start, stop):
    """The siblings `kids` sorted stably by (name[c], full(c)): full(c) is
    the sorted slice ids[start[c]:stop[c]] of c's run, and low[c] is its
    first element.  The slice is sorted only for siblings with equal
    (name, low)."""
    key = {c: (name[c], low[c]) for c in kids}
    count = Counter(key.values())
    return sorted(kids, key=lambda c: key[c] + (
        (tuple(sorted(ids[start[c]:stop[c]])),) if count[key[c]] > 1 else ()))


def _class_ranks(space, with_mass=True):
    """One bottom-up pass over merge_tree(space), without recursion, that
    ranks every cluster by its isomorphism class (canonical names after Aho,
    Hopcroft and Ullman 1974).  Points are ranked first, by (height, mass),
    then each level, ascending, by (height, mass, sorted child ranks), all
    quantised at CANON_QUANT.  A child sits at a lower level than its
    parent, so its rank is final first; levels lie more than TAU_METRIC
    apart, so ranks follow the order of nested signature tuples.  Children
    are ordered by (rank, point ids below), and a node's mass sums its
    children's in that order.  Returns the class keys in rank order and
    the root DendroNode."""
    order, level, children, start, stop = merge_tree(space)
    n = space.n
    ids = [space.ids[i] for i in order.tolist()]
    height = np.diag(space.u).tolist() + [space.levels[k] for k in level[n:]]
    nodes = [DendroNode(h, m, id=i)
             for h, m, i in zip(height, space.mu.tolist(), space.ids)]
    low, rank, keys = list(space.ids), {}, []
    for _, group in groupby(range(len(children)),
                            lambda v: -1 if v < n else level[v]):
        group, names = list(group), []
        for v in group:
            kids = sibling_order(children[v], rank, low, ids, start, stop)
            if kids:
                mass = float(sum(nodes[c].mass for c in kids))
                nodes.append(DendroNode(height[v], mass,
                                        tuple(nodes[c] for c in kids)))
                low.append(min(low[c] for c in kids))
            qm = round(nodes[v].mass / CANON_QUANT) if with_mass else None
            names.append((round(height[v] / CANON_QUANT), qm)
                         + ((tuple(rank[c] for c in kids),) if kids else ()))
        table = sorted(set(names))
        index = {name: len(keys) + r for r, name in enumerate(table)}
        keys += table
        rank.update((v, index[name]) for v, name in zip(group, names))
    return tuple(keys), nodes[-1]


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
    order of (canonical signature, sorted leaf ids), from _class_ranks.  LCA
    heights reproduce u exactly."""
    return _class_ranks(space)[1]


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
