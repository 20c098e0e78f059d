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

import numpy as np

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


def validate(space, mode="ultrametric"):
    """Check the metric axioms and return a report with violating triples.

    mode "ultrametric" requires a zero diagonal; "ultra_dissimilarity"
    requires max(u(x,x), u(y,y)) <= u(x,y) with equality iff x == y.
    """
    if mode not in ("ultrametric", "ultra_dissimilarity"):
        raise ValueError("unknown mode %r" % mode)
    u = space.u
    n = space.n
    bad = []
    if np.any(u < -TAU_METRIC):
        for i, j in zip(*np.nonzero(u < -TAU_METRIC)):
            bad.append(("negative", int(i), int(j)))
    asym = np.abs(u - u.T) > TAU_METRIC
    for i, j in zip(*np.nonzero(np.triu(asym, 1))):
        bad.append(("symmetry", int(i), int(j)))
    # strong triangle: u[i,j] <= max(u[i,k], u[k,j]) for all triples
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
                    # distinct points must sit strictly above both births
                    bad.append(("diagonal_equality", int(i), int(j)))
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


def diam_p(space, p):
    """p-diameter: (sum u^p mu x mu)^(1/p), or max u on the support at p=inf.

    Evaluated through the same tensor contraction as the coupling
    distortion, so the distortion against a one-point space (whose
    coupling is unique) reproduces this value bit-for-bit.
    """
    if p == np.inf:
        return float(space.u.max())
    u = np.where(space.u <= TAU_METRIC, 0.0, space.u)
    t = (u ** p)[:, None, :, None]
    plan = space.mu[:, None]
    val = float(np.einsum("ijkl,ij,kl->", t, plan, plan))
    return max(val, 0.0) ** (1.0 / p)


def _blocks_at(u, t, tol=TAU_METRIC):
    """Connected components of the relation u <= t + tol (union-find)."""
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
    # blocks ordered by smallest member for determinism
    return sorted(groups.values())


def quotient(space, t):
    """Weighted quotient at level t: blocks of u <= t, masses summed,
    representative distances between blocks, zero diagonal."""
    if t < 0:
        raise ValueError("level must be nonnegative")
    blocks = _blocks_at(space.u, t)
    k = len(blocks)
    qu = np.zeros((k, k))
    qmu = np.zeros(k)
    ids = []
    for a, ba in enumerate(blocks):
        qmu[a] = space.mu[ba].sum()
        ids.append("|".join(space.ids[i] for i in ba))
        for b in range(a + 1, k):
            d = space.u[ba[0], blocks[b][0]]
            qu[a, b] = qu[b, a] = d
    qspace = UmSpace(ids, qu, qmu / qmu.sum())
    return QuotientSpace(base=space, level=float(t),
                         blocks=tuple(tuple(b) for b in blocks),
                         quotient=qspace)


def _leaf_ids_key(node):
    return tuple(sorted(l.id or "" for l in node.leaves()))


def to_dendrogram(space):
    """Merge tree of the space: leaves born at u[i,i], blocks merged at each
    off-diagonal spectrum level.  LCA heights reproduce u exactly."""
    from .gw import canonical_signature  # deterministic child ordering

    n = space.n
    nodes = [DendroNode(height=float(space.u[i, i]), mass=float(space.mu[i]),
                        id=space.ids[i]) for i in range(n)]
    cluster = {i: (nodes[i], [i]) for i in range(n)}
    offdiag = space.u[~np.eye(n, dtype=bool)]
    levels = dedup_sorted(np.sort(offdiag)) if n > 1 else []
    for t in levels:
        if len(cluster) == 1:
            break
        blocks = _blocks_at(space.u, t)
        if len(blocks) == len(cluster):
            continue
        merged = {}
        for b, members in enumerate(blocks):
            inside = [key for key in cluster if cluster[key][1][0] in members]
            if len(inside) >= 2:
                kids = [cluster[key][0] for key in inside]
                kids.sort(key=lambda c: (canonical_signature(c), _leaf_ids_key(c)))
                node = DendroNode(height=float(t),
                                  mass=float(sum(c.mass for c in kids)),
                                  children=tuple(kids))
                merged[min(inside)] = (node, members)
                for key in inside:
                    del cluster[key]
        cluster.update(merged)
    (root, _), = cluster.values()
    return root


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
