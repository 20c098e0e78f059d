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
from dataclasses import dataclass, field
from functools import cached_property

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
        if self.is_leaf:
            return [self]
        out = []
        for c in self.children:
            out.extend(c.leaves())
        return out


# the dendrogram is just its root node
Dendrogram = DendroNode


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
    children, members = [()] * n, [(i,) for i in range(n)]
    for r in np.nonzero(kept)[0].tolist():
        kids, stack = [], list(pair[r])
        while stack:
            c = stack.pop()
            if c >= n and not kept[c - n]:
                stack.extend(pair[c - n])
            else:
                kids.append(c if c < n else index[c - n])
        children.append(tuple(sorted(kids)))
        members.append(tuple(sorted(i for c in kids for i in members[c])))
    level = np.concatenate([np.searchsorted(cut, np.diag(space.u)),
                            group[np.array(kept, dtype=bool)]])
    return level, children, members, [space.mu[list(m)].sum() for m in members]


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


def canonical_signature(node, with_mass=True, quant=CANON_QUANT):
    """Recursive order-invariant signature of a merge tree.  Two trees get
    equal signatures iff they are isomorphic as rooted trees with matching
    heights (and masses, unless with_mass is False), at resolution `quant`."""
    if isinstance(node, UmSpace):
        node = to_dendrogram(node)
    qh = int(round(node.height / quant))
    qm = int(round(node.mass / quant)) if with_mass else None
    if node.is_leaf:
        return ("leaf", qh, qm)
    kids = tuple(sorted(canonical_signature(c, with_mass, quant)
                        for c in node.children))
    return ("node", qh, qm, kids)


def _leaf_ids_key(node):
    return tuple(sorted(l.id or "" for l in node.leaves()))


def to_dendrogram(space):
    """Merge tree of the space as DendroNodes: leaves born at u[i,i], one
    node per merge level of the own off-diagonal spectrum, children ordered
    by (canonical signature, leaf ids).  LCA heights reproduce u exactly."""
    level, children, _, _ = merge_tree(space)
    nodes = [DendroNode(height=float(space.u[i, i]), mass=float(space.mu[i]),
                        id=space.ids[i]) for i in range(space.n)]
    for v in range(space.n, len(children)):
        kids = sorted((nodes[c] for c in children[v]),
                      key=lambda c: (canonical_signature(c), _leaf_ids_key(c)))
        nodes.append(DendroNode(height=float(space.levels[level[v]]),
                                mass=float(sum(c.mass for c in kids)),
                                children=tuple(kids)))
    return nodes[-1]


def from_dendrogram(root):
    """Inverse of to_dendrogram: LCA heights give u, leaf data give mu/ids."""
    leaves = root.leaves()
    n = len(leaves)
    ids = [l.id for l in leaves]
    mu = np.array([l.mass for l in leaves])
    index = {id(l): i for i, l in enumerate(leaves)}
    u = np.zeros((n, n))
    for l in leaves:
        u[index[id(l)], index[id(l)]] = l.height

    def fill(node):
        if node.is_leaf:
            return [index[id(node)]]
        groups = [fill(c) for c in node.children]
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                for i in groups[a]:
                    for j in groups[b]:
                        u[i, j] = u[j, i] = node.height
        return [i for g in groups for i in g]

    fill(root)
    return UmSpace(ids, u, mu)


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
