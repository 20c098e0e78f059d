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


def merge_tree(space, grid=None):
    """Merge tree of the space's single linkage on the ascending level
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


def quotient(space, t):
    """Weighted quotient at level t: blocks of u <= t (within TAU_METRIC),
    cut from the space's single linkage and ordered by smallest member;
    masses summed, representative distances between blocks, zero
    diagonal."""
    if t < 0:
        raise ValueError("level must be nonnegative")
    labels = (hierarchy.fcluster(space.linkage, t + TAU_METRIC, "distance")
              if space.n > 1 else np.ones(1))
    groups = {}
    for i, lab in enumerate(labels.tolist()):
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


def sibling_order(kids, name, low, children, tip):
    """The siblings `kids` sorted stably by (name[c], full(c)): full(c) is
    the sorted tuple of low[d] over the nodes d below c where tip(d) holds,
    walking `children`, and low[c] is its first element.  The walk is
    taken only for siblings with equal (name, low)."""
    def full(c):
        out, stack = [], [c]
        while stack:
            d = stack.pop()
            if tip(d):
                out.append(low[d])
            else:
                stack.extend(children[d])
        return tuple(sorted(out))

    key = {c: (name[c], low[c]) for c in kids}
    count = Counter(key.values())
    return sorted(kids, key=lambda c: key[c] + (
        (full(c),) if count[key[c]] > 1 else ()))


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
    level, children, _, _ = merge_tree(space)
    n = space.n
    height = np.diag(space.u).tolist() + [space.levels[k] for k in level[n:]]
    nodes = [DendroNode(h, m, id=i)
             for h, m, i in zip(height, space.mu.tolist(), space.ids)]
    low, rank, keys = list(space.ids), {}, []
    for _, group in groupby(range(len(children)),
                            lambda v: -1 if v < n else level[v]):
        group, names = list(group), []
        for v in group:
            kids = sibling_order(children[v], rank, low, children,
                                 lambda d: d < n)
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
    """Nested JSON object of a dendrogram.  json.dumps cannot encode
    nesting deeper than about 1,000 levels, so a deeper tree (a caterpillar
    of more than about 1,000 leaves) has no JSON text."""
    if node.is_leaf:
        return {"id": node.id, "mass": node.mass, "h": node.height}
    return {"h": node.height, "mass": node.mass,
            "children": [dendro_to_json(c) for c in node.children]}


def dendro_from_json(obj):
    if "children" in obj:
        kids = tuple(dendro_from_json(c) for c in obj["children"])
        return DendroNode(height=float(obj["h"]), mass=float(obj["mass"]),
                          children=kids)
    return DendroNode(height=float(obj.get("h", 0.0)), mass=float(obj["mass"]),
                      id=obj["id"])
