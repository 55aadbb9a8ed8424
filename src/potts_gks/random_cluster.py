"""Ghost-vertex random-cluster (FK) representation of the Potts model.

The base graph gains a ghost vertex joined to every real vertex. Real
edges open with probability 1 - exp(-J_e), ghost edges with
1 - exp(-h_v). Bond configurations are weighted by

    prod_e p_e^{w_e} (1-p_e)^{1-w_e} * q^{k(w)}

where k counts all open clusters of the augmented graph, including the
ghost's. Colouring the ghost's cluster 0 and every other cluster with an
independent uniform spin recovers the Potts measure exactly; that
coupling, the conditional expectations it induces, and the connectivity
event used by the disjoint-support inequality all live here.

Every exact sum over the 2^|E+| bond configurations comes from one
reducer, _bond_weight_blocks: it labels the clusters of a whole block of
configurations at once with numpy, and callers that need only the cluster
partition (the coupled marginal, the tower identity) reduce the block to
its distinct partitions before doing any per-partition Python work.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import expm1, factorial, fsum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import (
    EnumerationTooLarge,
    ModelError,
    PottsModel,
    SpinFunction,
    check_factors,
    check_state_cap,
    default_cap,
    region_indices,
)

_P_MAX = float(np.nextafter(1.0, 0.0))  # keep p < 1 even for huge J, h

_BOND_BLOCK = 1 << 16  # bond configurations per block of _bond_weight_blocks

# i! for the partition keys: a row of labels has labels[i] <= i, so the
# key sum_i labels[i] * i! identifies it and is below (n+1)!, which int64
# holds for n+1 <= 20
_FACTORIALS = np.array([factorial(i) for i in range(20)], dtype=np.int64)


@dataclass(frozen=True)
class AugmentedGraph:
    """Base model plus ghost vertex, with open probabilities on E+.

    `edge_index` lists E+ as index pairs (real edges first, then ghost
    edges in vertex order); the ghost carries index n_vertices.
    """

    base: PottsModel
    ghost: str
    edge_index: tuple[tuple[int, int], ...]
    p: tuple[float, ...]

    @property
    def n_vertices(self) -> int:
        return self.base.n_vertices

    @property
    def ghost_index(self) -> int:
        return self.base.n_vertices

    @property
    def n_bonds(self) -> int:
        return len(self.edge_index)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        names = self.base.vertices + (self.ghost,)
        return tuple((names[a], names[b]) for a, b in self.edge_index)


def augment(model: PottsModel) -> AugmentedGraph:
    """Attach the ghost vertex; every vertex gets a ghost edge (p=0 if h=0)."""
    ghost = "g"
    while ghost in model.vertices:
        ghost += "_"
    index = {v: i for i, v in enumerate(model.vertices)}
    n = model.n_vertices
    pairs = [(index[u], index[v]) for u, v in model.edges]
    pairs += [(n, i) for i in range(n)]
    p = [min(-expm1(-J), _P_MAX) for J in model.J]
    p += [min(-expm1(-h), _P_MAX) for h in model.h]
    return AugmentedGraph(model, ghost, tuple(pairs), tuple(p))


@dataclass(frozen=True)
class ClusterPartition:
    """Open clusters of a bond configuration, ghost cluster singled out."""

    ghost_cluster: tuple[str, ...]  # vertices joined to the ghost (ghost omitted)
    other_clusters: tuple[tuple[str, ...], ...]
    k: int  # number of non-ghost clusters


def _check_bond_config(aug: AugmentedGraph, omega: Sequence[int]) -> list[int]:
    bits = [int(b) for b in omega]
    if len(bits) != aug.n_bonds or any(b not in (0, 1) for b in bits):
        raise ModelError(
            f"bond configuration must be {aug.n_bonds} bits over E+, got {omega!r}"
        )
    return bits


def omega_from_code(aug: AugmentedGraph, code: int) -> np.ndarray:
    """Bond configuration from an integer; bit i of `code` is edge i of E+."""
    return np.array([(code >> i) & 1 for i in range(aug.n_bonds)], dtype=np.uint8)


def _labels_from_bits(aug: AugmentedGraph, bits: Sequence[int]) -> list[int]:
    """Connected-component label per node, canonicalized to min node index."""
    n1 = aug.n_vertices + 1
    parent = list(range(n1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b), bit in zip(aug.edge_index, bits):
        if bit:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(n1)]


def clusters(aug: AugmentedGraph, omega: Sequence[int]) -> ClusterPartition:
    """Open clusters of omega; isolated vertices are singletons."""
    bits = _check_bond_config(aug, omega)
    labels = _labels_from_bits(aug, bits)
    ghost_label = labels[aug.ghost_index]
    groups: dict[int, list[str]] = {}
    for i, v in enumerate(aug.base.vertices):
        groups.setdefault(labels[i], []).append(v)
    ghost_cluster = tuple(groups.pop(ghost_label, ()))
    others = tuple(tuple(groups[key]) for key in sorted(groups))
    return ClusterPartition(ghost_cluster, others, len(others))


# ---------------------------------------------------------------------------
# exact random-cluster measure
# ---------------------------------------------------------------------------


def check_bond_cap(aug: AugmentedGraph, cap: int | None = None) -> int:
    cap = default_cap() if cap is None else cap
    if 2**aug.n_bonds > cap:
        raise EnumerationTooLarge(
            f"2^{aug.n_bonds} bond configurations exceed cap {cap}"
        )
    return cap


def _merge(
    labels: np.ndarray, k: np.ndarray, a: int, b: int
) -> tuple[np.ndarray, np.ndarray]:
    """Open the bond <a,b> in every row of a label block.

    The larger of the two cluster labels is replaced by the smaller, so
    every label stays the minimum node index of its cluster; the cluster
    count k drops by one in the rows where the two clusters differed.
    """
    la, lb = labels[:, a], labels[:, b]
    hi, lo = np.maximum(la, lb)[:, None], np.minimum(la, lb)[:, None]
    return np.where(labels == hi, lo, labels), k - (la != lb)


def _bond_weight_blocks(
    aug: AugmentedGraph, cap: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(labels, weights) for every bond configuration, in blocks in code order.

    Row r of a block is code start + r: labels[r] is what _labels_from_bits
    gives for it (int8; n+1 <= m + 1 nodes, far below 127 under any cap
    that can be enumerated) and weights[r] its unnormalized weight
    q^k prod p^w (1-p)^(1-w). The low min(m, log2 _BOND_BLOCK) bonds are
    enumerated once, by doubling: the rows of the codes with bit j set are
    the rows of the codes < 2^j with bond j merged, and the bond factors
    double as x(1-p_j) and xp_j. Each block fixes the high bonds and merges
    them into that table, so a block holds _BOND_BLOCK rows whatever m is.
    Callers must not write to the yielded arrays.
    """
    check_bond_cap(aug, cap)
    m, n1 = aug.n_bonds, aug.n_vertices + 1
    low = min(m, _BOND_BLOCK.bit_length() - 1)
    table = np.arange(n1, dtype=np.int8)[None, :]
    k_table = np.array([n1], dtype=np.int8)
    factors = np.ones(1)
    for (a, b), p in zip(aug.edge_index[:low], aug.p[:low]):
        merged, k_merged = _merge(table, k_table, a, b)
        table = np.concatenate([table, merged])
        k_table = np.concatenate([k_table, k_merged])
        factors = np.concatenate([factors * (1.0 - p), factors * p])
    q_pow = np.array([float(aug.base.q) ** k for k in range(n1 + 1)])
    for high in range(2 ** (m - low)):
        labels, k, factor = table, k_table, 1.0
        for j in range(low, m):
            if (high >> (j - low)) & 1:
                labels, k = _merge(labels, k, *aug.edge_index[j])
                factor *= aug.p[j]
            else:
                factor *= 1.0 - aug.p[j]
        yield labels, q_pow[k] * (factors * factor)


def _group_partitions(
    labels: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One row per distinct partition, with the summed weight of its rows."""
    n1 = labels.shape[1]
    if n1 <= len(_FACTORIALS):
        keys = labels @ _FACTORIALS[:n1]
    else:  # the factorial key would overflow int64: compare the rows' bytes
        keys = np.ascontiguousarray(labels).view(np.dtype((np.void, n1))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return labels[first], np.bincount(inverse, weights)


def _bond_partitions(
    aug: AugmentedGraph, cap: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct cluster partitions of positive weight and their total weights.

    Row j of `labels` is one partition as labels of the n+1 nodes; weights[j]
    sums the weights of every bond configuration with that partition, so a
    function of the partition alone is averaged over at most Bell(n+1) rows
    instead of 2^m.
    """
    parts = [_group_partitions(*block) for block in _bond_weight_blocks(aug, cap)]
    labels = np.concatenate([lab for lab, _ in parts])
    weights = np.concatenate([w for _, w in parts])
    if len(parts) > 1:
        labels, weights = _group_partitions(labels, weights)
    keep = weights > 0.0
    return labels[keep], weights[keep]


def iter_bond_configs(
    aug: AugmentedGraph, cap: int | None = None
) -> Iterator[tuple[int, list[int], list[int]]]:
    """Yield (code, bits, labels) for every bond configuration of E+."""
    m = aug.n_bonds
    code = 0
    for labels, _ in _bond_weight_blocks(aug, cap):
        for row in labels.tolist():
            yield code, [(code >> i) & 1 for i in range(m)], row
            code += 1


def rc_weight_from_labels(
    aug: AugmentedGraph, bits: Sequence[int], labels: Sequence[int]
) -> float:
    k_all = len(set(labels))
    w = float(aug.base.q) ** k_all
    for p, bit in zip(aug.p, bits):
        w *= p if bit else 1.0 - p
    return w


def rc_weight(aug: AugmentedGraph, omega: Sequence[int]) -> float:
    """Unnormalized weight prod p^w (1-p)^(1-w) * q^k, k incl. ghost cluster."""
    bits = _check_bond_config(aug, omega)
    return rc_weight_from_labels(aug, bits, _labels_from_bits(aug, bits))


def rc_partition(aug: AugmentedGraph, cap: int | None = None) -> float:
    return fsum(float(np.sum(w)) for _, w in _bond_weight_blocks(aug, cap))


def rc_probability(
    aug: AugmentedGraph, omega: Sequence[int], cap: int | None = None
) -> float:
    """phi(omega), normalized over all of Omega+."""
    return rc_weight(aug, omega) / rc_partition(aug, cap)


def rc_distribution(aug: AugmentedGraph, cap: int | None = None) -> np.ndarray:
    """phi over all bond configurations, indexed by code (bit i = edge i)."""
    blocks = [w for _, w in _bond_weight_blocks(aug, cap)]
    return np.concatenate(blocks) / fsum(float(np.sum(w)) for w in blocks)


# ---------------------------------------------------------------------------
# cluster-spin coupling
# ---------------------------------------------------------------------------


def sample_spins(
    aug: AugmentedGraph, omega: Sequence[int], rng: np.random.Generator
) -> np.ndarray:
    """Colour clusters: ghost's cluster gets 0, the rest iid uniform spins."""
    bits = _check_bond_config(aug, omega)
    labels = _labels_from_bits(aug, bits)
    ghost_label = labels[aug.ghost_index]
    q, n = aug.base.q, aug.n_vertices
    colour: dict[int, int] = {ghost_label: 0}
    spins = np.empty(n, dtype=np.int64)
    for v in range(n):
        lab = labels[v]
        if lab not in colour:
            colour[lab] = int(rng.integers(q))
        spins[v] = colour[lab]
    return spins


def coupled_spin_marginal(aug: AugmentedGraph, cap: int | None = None) -> np.ndarray:
    """Spin law sum_w phi(w) P(sigma|w), over lexicographic spin states.

    Must agree with the Potts measure; the acceptance suite checks total
    variation against exact enumeration.
    """
    n, q = aug.n_vertices, aug.base.q
    check_state_cap(aug.base, cap)
    place = [q ** (n - 1 - v) for v in range(n)]
    colours = np.arange(q, dtype=np.int64)
    marginal = np.zeros(q**n)
    labels_rows, weights = _bond_partitions(aug, cap)
    for labels, w in zip(labels_rows.tolist(), weights.tolist()):
        ghost_label = labels[aug.ghost_index]
        strides: dict[int, int] = {}
        for v in range(n):
            lab = labels[v]
            if lab != ghost_label:
                strides[lab] = strides.get(lab, 0) + place[v]
        flat = np.zeros(1, dtype=np.int64)
        for s in strides.values():
            flat = (flat[:, None] + s * colours[None, :]).ravel()
        np.add.at(marginal, flat, w / q ** len(strides))
    return marginal / fsum(weights.tolist())


# ---------------------------------------------------------------------------
# conditional expectations given the bond configuration
# ---------------------------------------------------------------------------


def _power_table(f: SpinFunction, max_m: int) -> list[list[complex]]:
    """table[x][m] = f(x)**m with 0**0 == 1."""
    out = []
    for x in range(f.q):
        row = [1 + 0j]
        for _ in range(max_m):
            row.append(row[-1] * f.values[x])
        out.append(row)
    return out


def _prepare_condexp(
    base: PottsModel, factors: Sequence[tuple[SpinFunction, Iterable[str]]]
) -> list[tuple[list[list[complex]], tuple[int, ...]]]:
    prepared = check_factors(base, factors)
    return [(_power_table(f, len(idx)), idx) for f, idx in prepared]


def _condexp_from_labels(
    prepared: list[tuple[list[list[complex]], tuple[int, ...]]],
    labels: Sequence[int],
    ghost_label: int,
    q: int,
    include_ghost: bool = True,
) -> complex:
    """E( prod_i f_i(sigma)^{R_i} | omega ) from cluster labels.

    Ghost cluster contributes prod_i f_i(0)^{|R_i ∩ A_g|}; every other
    cluster contributes the uniform mixed moment (1/q) sum_x prod_i
    f_i(x)^{m_i}, exponents m_i = |R_i ∩ cluster|.
    """
    counts: dict[int, list[int]] = {}
    for i, (_, idx) in enumerate(prepared):
        for v in idx:
            lab = labels[v]
            if lab not in counts:
                counts[lab] = [0] * len(prepared)
            counts[lab][i] += 1
    value = 1 + 0j
    for lab, ms in counts.items():
        if lab == ghost_label:
            if not include_ghost:
                continue
            for i, (pow_table, _) in enumerate(prepared):
                value *= pow_table[0][ms[i]]
        else:
            terms = []
            for x in range(q):
                t = 1 + 0j
                for i, (pow_table, _) in enumerate(prepared):
                    t *= pow_table[x][ms[i]]
                terms.append(t)
            value *= complex(
                fsum(t.real for t in terms) / q, fsum(t.imag for t in terms) / q
            )
    return value


def conditional_expectation(
    aug: AugmentedGraph,
    omega: Sequence[int],
    factors: Sequence[tuple[SpinFunction, Iterable[str]]],
) -> complex:
    """E( prod_i f_i(sigma)^{R_i} | omega ) under the cluster colouring."""
    bits = _check_bond_config(aug, omega)
    labels = _labels_from_bits(aug, bits)
    prepared = _prepare_condexp(aug.base, factors)
    return _condexp_from_labels(
        prepared, labels, labels[aug.ghost_index], aug.base.q
    )


def cluster_moment_product(
    aug: AugmentedGraph,
    omega: Sequence[int],
    f: SpinFunction,
    region: Iterable[str],
    include_ghost: bool = True,
) -> complex:
    """Single-factor conditional expectation.

    With include_ghost=False the f(0)^{|R ∩ A_g|} factor is dropped; that
    is the second factor of the disjoint-support factorization, where the
    connectivity indicator makes the ghost term moot.
    """
    bits = _check_bond_config(aug, omega)
    labels = _labels_from_bits(aug, bits)
    prepared = _prepare_condexp(aug.base, [(f, region)])
    return _condexp_from_labels(
        prepared, labels, labels[aug.ghost_index], aug.base.q, include_ghost
    )


def event_Z(
    aug: AugmentedGraph,
    omega: Sequence[int],
    R: Iterable[str],
    S: Iterable[str],
) -> int:
    """1 iff no open path joins S to R or to the ghost."""
    bits = _check_bond_config(aug, omega)
    labels = _labels_from_bits(aug, bits)
    r_idx = region_indices(aug.base, R)
    s_idx = region_indices(aug.base, S)
    blocked = {labels[v] for v in r_idx}
    blocked.add(labels[aug.ghost_index])
    return 0 if any(labels[v] in blocked for v in s_idx) else 1


def rc_expectation(
    aug: AugmentedGraph,
    factors: Sequence[tuple[SpinFunction, Iterable[str]]],
    cap: int | None = None,
) -> complex:
    """phi-average of the conditional expectation (the tower identity LHS)."""
    prepared = _prepare_condexp(aug.base, factors)
    q = aug.base.q
    ghost = aug.ghost_index
    labels_rows, weights = _bond_partitions(aug, cap)
    num_re, num_im = [], []
    for labels, w in zip(labels_rows.tolist(), weights.tolist()):
        g = _condexp_from_labels(prepared, labels, labels[ghost], q)
        num_re.append(w * g.real)
        num_im.append(w * g.imag)
    z = fsum(weights.tolist())
    return complex(fsum(num_re) / z, fsum(num_im) / z)
