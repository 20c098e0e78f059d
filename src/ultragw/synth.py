"""Synthetic ultrametric space generation and level perturbation.

gen_ultrametric draws a 1-d sample from a mixture of k unit-length uniform
blocks spaced 1.5 apart, runs single linkage, reads off the cophenetic
ultrametric, and subsamples a small uniform subspace.  perturb reshuffles
the within-block spectrum below a level t so that the level-t quotient is
unchanged while everything below it moves.

All randomness flows through numpy's Philox generator (64-bit counter
based) keyed by the explicit seed, so outputs are reproducible across
platforms and thread schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import TAU_METRIC, UmSpace, dedup_sorted, quotient


def make_rng(seed, *spawn_key):
    """Deterministic Philox generator for a seed and optional subkeys."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in spawn_key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class GenSpec:
    k: int = 3
    samples_per_block: int = 100
    subsample: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.samples_per_block < 1:
            raise ValueError("k and samples_per_block must be >= 1")
        if not (1 <= self.subsample <= self.k * self.samples_per_block):
            raise ValueError("subsample must be between 1 and the sample size")


def gen_ultrametric(spec):
    """Random ultrametric measure space from single linkage on a 1-d
    uniform-mixture sample (block i supported on [1.5*i, 1.5*i + 1])."""
    rng = make_rng(spec.seed)
    total = spec.k * spec.samples_per_block
    comp = rng.integers(0, spec.k, size=total)
    pts = np.sort(1.5 * comp + rng.uniform(0.0, 1.0, size=total))
    keep = np.sort(rng.choice(total, size=spec.subsample, replace=False))
    # single linkage on the line: the cophenetic distance of two sorted
    # points is the largest adjacent gap between them
    gaps = np.diff(pts)
    n = spec.subsample
    u = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            lo, hi = keep[a], keep[b]
            u[a, b] = u[b, a] = float(gaps[lo:hi].max()) if hi > lo else 0.0
    ids = ["p%d" % i for i in range(n)]
    return UmSpace(ids, u, np.full(n, 1.0 / n))


def perturb(space, t, seed=0):
    """Randomly inflate the within-block spectrum below level t.

    Every block of the level-t quotient with more than one point has its
    m distinct positive internal levels s_1 < ... < s_m shifted to
    s_i + a_i, where the a_i are m sorted uniforms on [0, t - diam(block)].
    Order is preserved, so each block keeps its merge-tree topology and its
    diameter stays <= t; distances across blocks are untouched.  Hence the
    level-t quotient of the output equals that of the input.
    """
    rng = make_rng(seed)
    u = np.array(space.u)
    for block in quotient(space, t).blocks:  # refuses a bad level t
        if len(block) < 2:
            continue
        idx = np.ix_(block, block)
        sub = u[idx]
        off = sub[~np.eye(len(block), dtype=bool)]
        levels = [s for s in dedup_sorted(np.sort(off)) if s > TAU_METRIC]
        if not levels:
            continue
        delta = levels[-1]
        bumps = np.sort(rng.uniform(0.0, max(t - delta, 0.0), size=len(levels)))
        new = sub.copy()
        for s, a in zip(levels, bumps):
            new[np.abs(sub - s) <= TAU_METRIC] = s + a
        np.fill_diagonal(new, np.diag(sub))
        u[idx] = new
    return UmSpace(space.ids, u, space.mu)
