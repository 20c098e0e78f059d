"""Polynomial-time lower bounds for the ultrametric GW distances, plus
their classical counterparts.

All three bounds reduce to one-dimensional optimal transport between
pushforward distributions:
  * first bound (uflb/flb): eccentricity distributions,
  * second bound (uslb/slb): global distance distributions,
  * third bound (utlb/tlb): pointwise OT between local distance
    distributions, then OT over the resulting cost matrix.

The ultrametric variants use the ground cost max(a,b) on distinct values
and carry no 1/2 factor; the classical ones use |a-b| and include the 1/2.
"""

from __future__ import annotations

import numpy as np

from .transport import (_merged_histograms, exact_ot, pushforward,
                        w_halfline, w_halfline_rows, w_line_classical,
                        w_line_rows, w_quantile)


def global_distance_distribution(space):
    """Pushforward of mu x mu under u (diagonal atoms included)."""
    w = np.outer(space.mu, space.mu)
    return pushforward(space.u.ravel(), w.ravel())


def local_distance_distribution(space, i):
    """Pushforward of mu under u(x_i, .), self atom included."""
    return pushforward(space.u[i], space.mu)


def eccentricities(space, p):
    """Per-point p-eccentricities s_p(x) = ||u(x,.)||_{L^p(mu)}."""
    if p == np.inf:
        return space.u.max(axis=1)
    return ((space.u ** p) @ space.mu) ** (1.0 / p)


def uslb(X, Y, p):
    """Second lower bound: half-line Wasserstein distance between the two
    global distance distributions."""
    return w_halfline(global_distance_distribution(X),
                      global_distance_distribution(Y), p)


def slb(X, Y, p):
    """Classical second lower bound (with the classical 1/2 factor)."""
    return 0.5 * w_line_classical(global_distance_distribution(X),
                                  global_distance_distribution(Y), p)


def uslb1_decomposition(X, Y):
    """Split of the order-1 second lower bound into the classical bound
    plus a weighted total-variation term:
    uslb1 = slb1 + (1/2) * integral of t d|dH_X - dH_Y|(t)."""
    a = global_distance_distribution(X)
    b = global_distance_distribution(Y)
    u1 = w_halfline(a, b, 1)
    s1 = 0.5 * w_quantile(a, b, 1, 1)
    xs, am, bm = _merged_histograms(a.x, a.m, b.x, b.m)
    tv = 0.5 * float(np.sum(xs * np.abs(am - bm)))
    return u1, s1, tv


def uflb(X, Y, p):
    """First lower bound: optimal transport between the eccentricity
    pushforwards with the ultrametric ground cost, via the half-line
    closed form.  At p=inf all eccentricities equal the diameter, so this
    is max(diam X, diam Y) when the diameters differ, else 0."""
    a = pushforward(eccentricities(X, p), X.mu)
    b = pushforward(eccentricities(Y, p), Y.mu)
    return w_halfline(a, b, p)


def flb(X, Y, p):
    """Classical first lower bound (ground cost |a-b|, 1/2 factor)."""
    a = pushforward(eccentricities(X, p), X.mu)
    b = pushforward(eccentricities(Y, p), Y.mu)
    return 0.5 * w_line_classical(a, b, p)


def _ot_of_local_costs(cost, X, Y, p):
    """Order-p OT between mu_X and mu_Y over the matrix of pointwise 1-D
    distances between local distance distributions."""
    if p == np.inf:
        return exact_ot(cost, X.mu, Y.mu, p_mode="max")[0]
    val, _ = exact_ot(cost ** p, X.mu, Y.mu, p_mode="sum")
    return max(val, 0.0) ** (1 / p)


def utlb(X, Y, p):
    """Third lower bound: OT over the matrix of pointwise half-line
    distances between local distance distributions."""
    return _ot_of_local_costs(w_halfline_rows(X.u, X.mu, Y.u, Y.mu, p),
                              X, Y, p)


def tlb(X, Y, p):
    """Classical third lower bound (1/2 factor, cost |a-b|)."""
    return 0.5 * _ot_of_local_costs(w_line_rows(X.u, X.mu, Y.u, Y.mu, p),
                                    X, Y, p)
