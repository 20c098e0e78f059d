"""Seeded inputs for the benchmark.

Everything here is drawn from numpy's Philox generator keyed by the run
seed and a tuple of sub-keys, so one seed always yields the same inputs.
The generator is the benchmark's own: it does not use ``ultragw.synth``,
so a change to the library's generator cannot change the workloads.

Spaces are plain dicts in the library's JSON wire format
(``{"ids": [...], "u": [[...]], "mu": [...]}``).
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import pdist, squareform


def make_rng(seed, *keys):
    """Philox generator for a run seed and integer sub-keys."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in keys))
    return np.random.Generator(np.random.Philox(ss))


def _masses(rng, n):
    m = rng.uniform(0.5, 1.5, size=n)
    return m / m.sum()


def ultrametric_mixture(rng, n, k):
    """Single-linkage ultrametric on n points drawn from a mixture of k
    well-separated Gaussian clusters in the plane, with random positive
    masses.  Merge heights are continuous, so there are n-1 distinct
    levels and an isomorphic pair makes the order-infinity sweep visit
    every one of them."""
    centres = rng.uniform(0.0, 10.0 * k, size=(k, 2))
    comp = np.sort(rng.integers(0, k, size=n))
    pts = centres[comp] + rng.standard_normal((n, 2))
    u = squareform(cophenet(linkage(pdist(pts), method="single")))
    return {"ids": ["p%d" % i for i in range(n)], "u": u.tolist(),
            "mu": _masses(rng, n).tolist()}


def relabel(rng, space):
    """The same space with its points in a random order and new names."""
    n = len(space["ids"])
    perm = rng.permutation(n)
    u = np.asarray(space["u"])[np.ix_(perm, perm)]
    mu = np.asarray(space["mu"])[perm]
    return {"ids": ["q%d" % i for i in range(n)], "u": u.tolist(),
            "mu": mu.tolist()}


def top_level(space, blocks):
    """The merge height at which the space splits into `blocks` blocks:
    the blocks-th largest distinct off-diagonal value."""
    u = np.asarray(space["u"])
    levels = np.unique(u[~np.eye(len(u), dtype=bool)])
    return float(levels[-blocks])


def level_blocks(u, t):
    """Blocks of the relation u <= t of an ultrametric (an equivalence)."""
    n = len(u)
    seen = np.zeros(n, dtype=bool)
    out = []
    for i in range(n):
        if not seen[i]:
            members = np.nonzero(u[i] <= t)[0]
            seen[members] = True
            out.append(members)
    return out


def perturb_below(rng, space, t):
    """Redraw every within-block distance of the level-t partition as a
    fresh single-linkage ultrametric of diameter below t.  Distances
    across blocks are kept, so the level-t quotient, and hence every
    quotient above t, is unchanged: the order-infinity distance of the
    pair is at most t."""
    u = np.array(space["u"])
    for block in level_blocks(u, t):
        m = len(block)
        if m < 2:
            continue
        pts = rng.standard_normal((m, 2))
        sub = squareform(cophenet(linkage(pdist(pts), method="single")))
        sub *= rng.uniform(0.5, 0.95) * t / sub.max()
        u[np.ix_(block, block)] = sub
    return {"ids": list(space["ids"]), "u": u.tolist(),
            "mu": list(space["mu"])}


def _split_tree(rng, labels):
    if len(labels) == 1:
        return labels[0]
    parts = int(rng.integers(2, min(4, len(labels)) + 1))
    cuts = np.sort(rng.choice(np.arange(1, len(labels)), size=parts - 1,
                              replace=False))
    kids = np.split(np.asarray(labels, dtype=object), cuts)
    return "(" + ",".join(_split_tree(rng, list(kid)) for kid in kids) + ")"


def random_newick(rng, tips):
    """Random rooted tree shape on `tips` labelled tips, without branch
    lengths: each internal node splits its tip set at random into 2 to 4
    non-empty parts."""
    labels = ["t%d" % i for i in rng.permutation(tips)]
    return _split_tree(rng, labels) + ";"


def write_space(path, space):
    with open(path, "w") as f:
        json.dump(space, f)
        f.write("\n")


def write_text(path, text):
    with open(path, "w") as f:
        f.write(text + "\n")


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
