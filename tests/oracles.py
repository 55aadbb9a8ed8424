"""Independent brute-force oracles for the test suite.

Deliberately naive: plain Python loops over itertools.product, BFS
connectivity instead of union-find, direct complex powers. These stay
independent of the library's vectorized/enumeration code paths so every
frozen expected value has a second route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from potts_gks import PottsModel, SpinFunction


def brute_weight(model: PottsModel, sigma) -> float:
    index = {v: i for i, v in enumerate(model.vertices)}
    e = sum(
        J for (u, v), J in zip(model.edges, model.J) if sigma[index[u]] == sigma[index[v]]
    )
    e += sum(h for i, h in enumerate(model.h) if sigma[i] == 0)
    return math.exp(e)


def brute_partition(model: PottsModel) -> float:
    return sum(
        brute_weight(model, sigma)
        for sigma in product(range(model.q), repeat=model.n_vertices)
    )


def brute_expectation(model: PottsModel, factors) -> complex:
    index = {v: i for i, v in enumerate(model.vertices)}
    num = 0j
    den = 0.0
    for sigma in product(range(model.q), repeat=model.n_vertices):
        w = brute_weight(model, sigma)
        val = 1 + 0j
        for f, region in factors:
            for v in region:
                val *= f.values[sigma[index[v]]]
        num += w * val
        den += w
    return num / den


def bfs_components(n_nodes: int, edges_with_bits) -> list[set[int]]:
    """Connected components of the open subgraph, BFS per node."""
    adj = {x: [] for x in range(n_nodes)}
    for (a, b), bit in edges_with_bits:
        if bit:
            adj[a].append(b)
            adj[b].append(a)
    seen = set()
    comps = []
    for start in range(n_nodes):
        if start in seen:
            continue
        queue = [start]
        comp = set()
        while queue:
            x = queue.pop()
            if x in comp:
                continue
            comp.add(x)
            queue.extend(adj[x])
        seen |= comp
        comps.append(comp)
    return comps


def code_bits(m: int, code: int) -> list[int]:
    """Bond configuration of an integer code: bit i of `code` is bond i."""
    return [(code >> i) & 1 for i in range(m)]


def code_partition_keys(aug) -> list[tuple[int, ...]]:
    """Every code's cluster partition, in code order, by BFS: the key gives
    each of the n+1 nodes the smallest node index of its component."""
    n1 = aug.n_vertices + 1
    keys = []
    for code in range(2**aug.n_bonds):
        key = [0] * n1
        omega = code_bits(aug.n_bonds, code)
        for comp in bfs_components(n1, zip(aug.edge_index, omega)):
            low = min(comp)
            for x in comp:
                key[x] = low
        keys.append(tuple(key))
    return keys


def first_omegas(aug, keys) -> dict[tuple[int, ...], list[int]]:
    """The bond configuration of each partition's first code, by key."""
    first: dict[tuple[int, ...], int] = {}
    for code, key in enumerate(keys):
        first.setdefault(key, code)
    return {key: code_bits(aug.n_bonds, code) for key, code in first.items()}


def brute_rc_weight(aug, omega) -> float:
    """prod p^w (1-p)^(1-w) q^k with BFS cluster counting."""
    n1 = aug.n_vertices + 1
    comps = bfs_components(n1, zip(aug.edge_index, omega))
    w = float(aug.base.q) ** len(comps)
    for p, bit in zip(aug.p, omega):
        w *= p if bit else 1.0 - p
    return w


def brute_coupled_marginal(aug) -> dict[tuple[int, ...], float]:
    """sum_w phi(w) P(sigma | w) by explicit colouring enumeration."""
    n = aug.n_vertices
    q = aug.base.q
    m = aug.n_bonds
    total = 0.0
    marginal: dict[tuple[int, ...], float] = {}
    for code in range(2**m):
        omega = code_bits(m, code)
        w = brute_rc_weight(aug, omega)
        total += w
        comps = bfs_components(n + 1, zip(aug.edge_index, omega))
        ghost_comp = next(c for c in comps if n in c)
        others = [sorted(c) for c in comps if n not in c]
        for colours in product(range(q), repeat=len(others)):
            sigma = [0] * n
            for comp, colour in zip(others, colours):
                for v in comp:
                    sigma[v] = colour
            key = tuple(sigma)
            marginal[key] = marginal.get(key, 0.0) + w / q ** len(others)
    return {k: v / total for k, v in marginal.items()}


def brute_condexp(aug, omega, factors, include_ghost=True) -> complex:
    """E(prod_i f_i(sigma)^{R_i} | omega): BFS clusters, the ghost's coloured 0,
    the rest averaged over all q^k colourings (ghost's factors dropped when
    include_ghost is False)."""
    n = aug.n_vertices
    q = aug.base.q
    index = {v: i for i, v in enumerate(aug.base.vertices)}
    comps = bfs_components(n + 1, zip(aug.edge_index, omega))
    ghost = next(c for c in comps if n in c)
    others = [c for c in comps if n not in c]
    total = 0j
    for colours in product(range(q), repeat=len(others)):
        sigma = [0] * n
        for comp, colour in zip(others, colours):
            for v in comp:
                sigma[v] = colour
        val = 1 + 0j
        for f, region in factors:
            for name in region:
                v = index[name]
                if include_ghost or v not in ghost:
                    val *= f.values[sigma[v]]
        total += val
    return total / q ** len(others)


def brute_moment(f: SpinFunction, m: int) -> complex:
    return sum(v**m if m else 1 + 0j for v in f.values)


def exact_moment_inequalities(values, M: int) -> bool:
    """Every S_m >= 0 and q S_{m+n} >= S_m S_n for m + n <= M, with the power
    sums of a real table taken exactly in Fractions of its float values."""
    xs = [Fraction(float(v)) for v in values]
    q = len(xs)
    S = [sum(x**m for x in xs) for m in range(M + 1)]
    return all(s >= 0 for s in S) and all(
        q * S[m + n] >= S[m] * S[n] for m in range(M + 1) for n in range(M + 1 - m)
    )
