"""Exact-rational reference solver for discrete optimal transport, used by
the tests as an oracle for the LP path of ``exact_ot``: a transportation
simplex over Fractions, so its optimum carries no floating-point error."""

from fractions import Fraction

import numpy as np

MAX_ATOMS = 16


def transportation_simplex(cost, supply, demand):
    """Exact transportation simplex over Fractions.  Returns (value, flow
    matrix).  Bland-style pivoting (first improving cell, row-major)."""
    m, n = len(supply), len(demand)
    flow = {}
    basis = []
    a = list(supply)
    b = list(demand)
    i = j = 0
    while True:
        q = min(a[i], b[j])
        flow[(i, j)] = q
        basis.append((i, j))
        a[i] -= q
        b[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if a[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1

    def potentials():
        us = [None] * m
        vs = [None] * n
        us[0] = Fraction(0)
        pending = list(basis)
        while pending:
            rest = []
            for (bi, bj) in pending:
                if us[bi] is not None and vs[bj] is None:
                    vs[bj] = cost[bi][bj] - us[bi]
                elif vs[bj] is not None and us[bi] is None:
                    us[bi] = cost[bi][bj] - vs[bj]
                elif us[bi] is None and vs[bj] is None:
                    rest.append((bi, bj))
            if len(rest) == len(pending):  # disconnected basis: cannot happen
                raise RuntimeError("basis tree is disconnected")
            pending = rest
        return us, vs

    while True:
        us, vs = potentials()
        entering = None
        bset = set(basis)
        for bi in range(m):
            for bj in range(n):
                if (bi, bj) not in bset and cost[bi][bj] - us[bi] - vs[bj] < 0:
                    entering = (bi, bj)
                    break
            if entering:
                break
        if entering is None:
            break
        # unique cycle: path from entering's row node to its column node in
        # the basis tree, found by DFS over basic cells
        adj = {}
        for (bi, bj) in basis:
            adj.setdefault(("r", bi), []).append(("c", bj))
            adj.setdefault(("c", bj), []).append(("r", bi))
        start, goal = ("r", entering[0]), ("c", entering[1])
        prev = {start: None}
        stack = [start]
        while stack:
            node = stack.pop()
            if node == goal:
                break
            for nxt in adj.get(node, []):
                if nxt not in prev:
                    prev[nxt] = node
                    stack.append(nxt)
        path = []
        node = goal
        while node is not None:
            path.append(node)
            node = prev[node]
        path.reverse()  # row(entering) ... col(entering)
        cycle = [entering]
        for k in range(len(path) - 1):
            x, y = path[k], path[k + 1]
            cell = (x[1], y[1]) if x[0] == "r" else (y[1], x[1])
            cycle.append(cell)
        # entering gets +, then alternate along the cycle
        minus = cycle[1::2]
        theta = min(flow[c] for c in minus)
        leaving = min(c for c in minus if flow[c] == theta)
        for k, cell in enumerate(cycle):
            if k % 2 == 0:
                flow[cell] = flow.get(cell, Fraction(0)) + theta
            else:
                flow[cell] -= theta
        basis.remove(leaving)
        del flow[leaving]
        basis.append(entering)

    plan = [[flow.get((bi, bj), Fraction(0)) for bj in range(n)] for bi in range(m)]
    value = sum(cost[bi][bj] * plan[bi][bj] for bi in range(m) for bj in range(n))
    return value, plan


def ot_rational(cost, mu, nu):
    """Optimal total cost and plan of the transport problem (cost, mu, nu),
    solved exactly over the rationals of the float inputs.  Limited to
    MAX_ATOMS atoms per side."""
    cost = np.asarray(cost, dtype=float)
    if len(mu) > MAX_ATOMS or len(nu) > MAX_ATOMS:
        raise ValueError("the rational oracle is limited to %d atoms per side"
                         % MAX_ATOMS)
    cost_f = [[Fraction(float(cost[i, j])) for j in range(cost.shape[1])]
              for i in range(cost.shape[0])]
    sup = [Fraction(float(v)) for v in mu]
    dem = [Fraction(float(v)) for v in nu]
    total = sum(sup)
    # balance exactly: fold any float round-off of the totals into the
    # largest atoms so supply and demand agree as rationals
    dtot = sum(dem)
    if dtot != total:
        k = max(range(len(dem)), key=lambda t: dem[t])
        dem[k] += total - dtot
    value, plan = transportation_simplex(cost_f, sup, dem)
    return float(value), np.array([[float(v) for v in row] for row in plan])

