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

Every cluster label comes from _merge, which opens one bond in every row
of a label table: a single omega is labelled on a one-row table. Every
bond-side sum reads one table of partitions, built by adding the bonds
one at a time to at most about 2 Bell(n+1) label rows: _bond_partitions
weights its rows, memoized per augmented graph and cap, for Z, the
coupled spin law and the tower mean. The cap bounds that table, rows
times n+1 labels, before each bond doubles it, and not the 2^|E+| bond
configurations, which are never visited. _ClusterFactors gives
E(prod f^R | omega): of_rows for every row of a label table in one numpy
pass (the tower mean, and a single omega as one row), product for one
omega of mc's sampler; both share one memo of cluster factors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product
from math import expm1, factorial, fsum
from typing import Iterable, Sequence

import numpy as np

from .model import (
    EnumerationTooLarge,
    ModelError,
    PottsModel,
    SpinFunction,
    _check_cap,
    check_factors,
    default_cap,
    region_indices,
)

_P_MAX = float(np.nextafter(1.0, 0.0))  # keep p < 1 even for huge J, h

# label rows a bond reducer lets its table reach before regrouping; on a
# smaller table np.unique costs more than the rows it removes save
_PARTITION_ROWS = 256
_STATE_BLOCK = 1 << 14  # spin-state entries per chunk of coupled_spin_marginal

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


def augment(model: PottsModel) -> AugmentedGraph:
    """Attach the ghost vertex; every vertex gets a ghost edge (p=0 if h=0)."""
    index = {v: i for i, v in enumerate(model.vertices)}
    n = model.n_vertices
    pairs = [(index[u], index[v]) for u, v in model.edges]
    pairs += [(n, i) for i in range(n)]
    p = [min(-expm1(-J), _P_MAX) for J in model.J]
    p += [min(-expm1(-h), _P_MAX) for h in model.h]
    return AugmentedGraph(model, tuple(pairs), tuple(p))


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


def clusters(aug: AugmentedGraph, omega: Sequence[int]) -> ClusterPartition:
    """Open clusters of omega; isolated vertices are singletons."""
    labels = _omega_labels(aug, omega)
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


def _merge(labels: np.ndarray, a: int, b: int) -> np.ndarray:
    """Open the bond <a,b> in every row of a label block.

    The larger of the two cluster labels is replaced by the smaller, so
    every label stays the minimum node index of its cluster, and a row's
    clusters are its fixed points (labels[i] == i). The clusters joined are
    distinct in the rows where labels[:, a] != labels[:, b].
    """
    la, lb = labels[:, a], labels[:, b]
    hi, lo = np.maximum(la, lb)[:, None], np.minimum(la, lb)[:, None]
    return np.where(labels == hi, lo, labels)


def _omega_labels(aug: AugmentedGraph, omega: Sequence[int]) -> list[int]:
    """Cluster labels of one omega: _merge on a one-row table, per open bond.

    No cap bounds the vertex count here, so labels are int64, not int8.
    """
    bits = _check_bond_config(aug, omega)
    labels = np.arange(aug.n_vertices + 1, dtype=np.int64)[None, :]
    for (a, b), bit in zip(aug.edge_index, bits):
        if bit:
            labels = _merge(labels, a, b)
    return labels[0].tolist()


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
    """Distinct cluster partitions and their total weights.

    Row j of `labels` is one partition as labels of the n+1 nodes; weights[j]
    sums the weights of every bond configuration with that partition, so a
    function of the partition alone is averaged over at most Bell(n+1) rows
    instead of 2^m. A row is kept when its float weight is positive: q^k
    multiplies in after the bond factors, so a partition whose product of
    bond factors underflows to 0 is dropped even if q^k times that product
    would be representable. The cap (default_cap() when None) bounds the
    label table _partition_table builds, rows times n+1 labels, not the
    2^|E+| bond configurations, which it never visits. The table is memoized
    per graph and cap, so the spin law and the tower mean of one graph share
    it, and a smaller cap misses the memo and raises. The arrays are
    read-only.
    """
    return _partition_table(aug, default_cap() if cap is None else cap)


# a caller asks for one graph's table a few times in a row (the spin law,
# then the tower mean); a table holds at most min(2^|E+|, Bell(n+1)) rows
@functools.lru_cache(maxsize=8)
def _partition_table(aug: AugmentedGraph, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The reducer behind _bond_partitions; __wrapped__ is its uncached body.

    The bonds are added one at a time to a table of label rows: each bond
    appends the table's _merge'd copy, the old rows weighted by 1-p and the
    new by p, and rows of one partition are summed whenever the table passes
    _PARTITION_ROWS rows. The table so stays below
    2 * max(_PARTITION_ROWS, Bell(n+1)) rows, and no bond configuration is
    visited; q^k, with k the rows' fixed points, multiplies in at the end.
    Each doubling is checked against the cap before it is allocated, and the
    int8 labels limit the graph to 127 nodes.
    """
    n1 = aug.n_vertices + 1
    if n1 > 127:
        raise EnumerationTooLarge(
            f"the partition table over {n1} nodes: int8 labels take at most 127"
        )
    labels = np.arange(n1, dtype=np.int8)[None, :]
    weights = np.ones(1)
    for (a, b), p in zip(aug.edge_index, aug.p):
        if p == 0.0:  # the merged rows would all weigh 0, the rest x1
            continue
        _check_cap(2 * labels.size,
                   f"a partition table of {2 * len(labels)} rows x {n1} labels", cap)
        labels = np.concatenate([labels, _merge(labels, a, b)])
        weights = np.concatenate([weights * (1.0 - p), weights * p])
        if len(weights) > _PARTITION_ROWS:
            labels, weights = _group_partitions(labels, weights)
    labels, weights = _group_partitions(labels, weights)
    weights *= float(aug.base.q) ** np.count_nonzero(labels == np.arange(n1), axis=1)
    keep = weights > 0.0
    labels, weights = labels[keep], weights[keep]
    labels.flags.writeable = weights.flags.writeable = False
    return labels, weights


def rc_weight(aug: AugmentedGraph, omega: Sequence[int]) -> float:
    """Unnormalized weight prod p^w (1-p)^(1-w) * q^k, k incl. ghost cluster."""
    bits = _check_bond_config(aug, omega)
    w = float(aug.base.q) ** len(set(_omega_labels(aug, bits)))
    for p, bit in zip(aug.p, bits):
        w *= p if bit else 1.0 - p
    return w


def rc_partition(aug: AugmentedGraph, cap: int | None = None) -> float:
    """Z of the ghost random-cluster measure: the partitions' summed weights."""
    return fsum(_bond_partitions(aug, cap)[1].tolist())


def rc_probability(
    aug: AugmentedGraph, omega: Sequence[int], cap: int | None = None
) -> float:
    """phi(omega), normalized over all of Omega+."""
    return rc_weight(aug, omega) / rc_partition(aug, cap)


# ---------------------------------------------------------------------------
# cluster-spin coupling
# ---------------------------------------------------------------------------


def sample_spins(
    aug: AugmentedGraph, omega: Sequence[int], rng: np.random.Generator
) -> np.ndarray:
    """Colour clusters: ghost's cluster gets 0, the rest iid uniform spins."""
    labels = _omega_labels(aug, omega)
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
    variation against potts_distribution. A partition of _bond_partitions
    gives each of its k clusters away from the ghost one uniform colour, so
    its q^k states, each of weight w_j / q^k, are strides_j @ grid_k: the
    i-th stride sums the place values of the i-th cluster's vertices, and
    the columns of grid_k are the q^k colourings of k slots. Partitions
    with the same k share one matrix product per chunk of
    _STATE_BLOCK // q^k rows (one row if q^k is larger). grid covers only
    the slots whose colourings fit in _STATE_BLOCK columns; a row with more
    clusters adds its remaining slots' colourings one at a time as an
    offset. So no array holds more than _STATE_BLOCK states, no state is
    listed twice, and the work is sum_j q^(k_j).
    """
    n, q = aug.n_vertices, aug.base.q
    _check_cap(q**n, f"the spin law over {q}^{n} states", cap)
    # float64, so that the product runs in BLAS; every index is an integer
    # below q^n, which the cap keeps far below 2^53
    place = float(q) ** np.arange(n - 1, -1, -1)
    slots = 0
    while slots < n and q ** (slots + 1) <= _STATE_BLOCK:
        slots += 1
    # row i holds digit i of the column index, so the last j rows of the
    # first q^j columns are the colourings of j slots
    grid = (np.arange(q**slots) // place[n - slots :, None] % q).astype(np.float64)
    labels, weights = _bond_partitions(aug, cap)
    real = labels[:, :n]
    roots = (real == np.arange(n)) & (real != labels[:, n:])
    counts = np.count_nonzero(roots, axis=1)
    # partitions in order of k; strides lists their clusters' strides in turn
    order = np.argsort(counts, kind="stable")
    members = real[order][:, :, None] == np.arange(n)
    strides = np.einsum("jvr,v->jr", members, place)[roots[order]]
    sorted_weights = weights[order]
    marginal = np.zeros(q**n)
    row = pos = 0
    for k, size in enumerate(np.bincount(counts).tolist()):
        k_strides = strides[pos : pos + size * k].reshape(size, k)
        k_weights = sorted_weights[row : row + size] / q**k
        row, pos = row + size, pos + size * k
        low = min(k, slots)
        rows = max(1, _STATE_BLOCK // q**k)
        for start in range(0, size, rows):
            chunk = slice(start, start + rows)
            low_flat = k_strides[chunk, k - low :] @ grid[slots - low :, : q**low]
            chunk_weights = np.repeat(k_weights[chunk], q**low)
            for high in product(range(q), repeat=k - low):
                flat = low_flat + (k_strides[chunk, : k - low] @ high)[:, None]
                np.add.at(marginal, flat.astype(np.intp).ravel(), chunk_weights)
    return marginal / fsum(weights.tolist())


# ---------------------------------------------------------------------------
# conditional expectations given the bond configuration
# ---------------------------------------------------------------------------


class _ClusterFactors:
    """E( prod_i f_i(sigma)^{R_i} | omega ) as a product over omega's clusters.

    The ghost's cluster contributes prod_i f_i(0)^{m_i}, every other cluster
    (1/q) sum_y prod_i f_i(y)^{m_i}, where m_i = |R_i ∩ cluster|. Built once
    per factor list; powtab[i, x, m] = f_i(x)**m comes from repeated numpy
    multiplication, the arithmetic the Monte Carlo digest was frozen with. A
    member (v, base**i) per vertex of each region makes a cluster's m_i the
    base-(max_m + 1) digits of one code, by which both factors are memoized.
    """

    def __init__(self, base: PottsModel, factors) -> None:
        self.prepared = prepared = check_factors(base, factors)
        max_m = max((len(idx) for _, idx in prepared), default=0)
        values = np.array([f.values for f, _ in prepared], dtype=np.complex128)
        self.powtab = np.empty((len(prepared), base.q, max_m + 1), dtype=np.complex128)
        self.powtab[:, :, 0] = 1.0
        for m in range(1, max_m + 1):
            self.powtab[:, :, m] = self.powtab[:, :, m - 1] * values
        self.members = [(v, (max_m + 1) ** i) for i, (_, idx) in enumerate(prepared)
                        for v in sorted(idx)]
        self._member_v = np.array([v for v, _ in self.members], dtype=np.intp)
        self._member_w = np.array([w for _, w in self.members], dtype=np.float64)
        self._ghost: dict[int, complex] = {}
        self._cluster: dict[int, complex] = {}

    def _counts(self, code: int) -> list[int]:
        base = self.powtab.shape[2]
        return [code // base**i % base for i in range(len(self.prepared))]

    def _ghost_factor(self, code: int) -> complex:
        """prod_i f_i(0)**m_i: the ghost cluster is coloured 0."""
        val = complex(1.0, 0.0)
        for i, m in enumerate(self._counts(code)):
            val = val * self.powtab[i, 0, m]
        self._ghost[code] = val
        return val

    def _mixed_moment(self, code: int) -> complex:
        """(1/q) sum_y prod_i f_i(y)**m_i: a non-ghost cluster's uniform colour.

        The sum is a numpy complex scalar whenever a factor is present, so
        `acc / q` is numpy's complex division, not Python's.
        """
        powtab, ms = self.powtab, self._counts(code)
        q = powtab.shape[1]
        acc = complex(0.0, 0.0)
        for y in range(q):
            t = complex(1.0, 0.0)
            for i, m in enumerate(ms):
                t = t * powtab[i, y, m]
            acc = acc + t
        val = self._cluster[code] = acc / q
        return val

    def product(self, root, groot, roots, include_ghost=True) -> complex:
        """root[v] is the cluster root of real vertex v, groot the ghost's.

        The ghost's factor comes first (unless include_ghost is False), then
        the factor of each other root in the order given; a cluster that no
        region touches has factor exactly 1.
        """
        code_of: dict[int, int] = {}
        for v, w in self.members:
            r = root[v]
            code_of[r] = code_of.get(r, 0) + w
        ghost, cluster = self._ghost, self._cluster
        val = complex(1.0, 0.0)
        if include_ghost:
            code = code_of.get(groot, 0)
            val = ghost[code] if code in ghost else self._ghost_factor(code)
        for x in roots:
            code = code_of.get(x, 0)
            val = val * (cluster[code] if code in cluster else self._mixed_moment(code))
        return val

    def of_rows(self, labels: np.ndarray, include_ghost: bool = True) -> np.ndarray:
        """product() for every row of a _merge label table, in one numpy pass.

        A row's roots are its fixed points; the ghost's root is labels[:, -1].
        One bincount sums each member's weight at its root, giving every
        cluster's code; the factor of each distinct code comes from the memo
        product() shares. The ghost's factor sits in the ghost's column, the
        others at their roots, and 1 everywhere else, so a row's product is
        the product of its columns.
        """
        rows, n1 = labels.shape
        if self.powtab.shape[2] ** len(self.prepared) > 2**53:
            raise ModelError(
                f"{len(self.prepared)} factors: cluster codes would not be exact "
                "in float64"
            )
        # flat[r, v]: the position of row r's entry for v's root in codes
        flat = labels + np.arange(0, rows * n1, n1)[:, None]
        member_w = self._member_w[None, :].repeat(rows, axis=0)
        codes = np.bincount(flat[:, self._member_v].ravel(), member_w.ravel(),
                            minlength=rows * n1)
        roots = (labels == np.arange(n1)) & (labels != labels[:, -1:])
        values = np.ones((rows, n1), dtype=np.complex128)
        values[roots] = self._lookup(self._cluster, self._mixed_moment,
                                     codes.reshape(rows, n1)[roots])
        if include_ghost:
            values[:, -1] = self._lookup(self._ghost, self._ghost_factor,
                                         codes[flat[:, -1]])
        return values.prod(axis=1)

    @staticmethod
    def _lookup(memo: dict, factor, codes: np.ndarray) -> np.ndarray:
        """memo[code] (factor(code) on a miss) for every entry of `codes`."""
        keys = sorted(map(int, set(codes.tolist())))  # codes are exact in float64
        table = np.array([memo[c] if c in memo else factor(c) for c in keys],
                         dtype=np.complex128)
        return table[np.searchsorted(keys, codes)]


def conditional_expectation(
    aug: AugmentedGraph,
    omega: Sequence[int],
    factors: Sequence[tuple[SpinFunction, Iterable[str]]],
    include_ghost: bool = True,
) -> complex:
    """E( prod_i f_i(sigma)^{R_i} | omega ) under the cluster colouring.

    With include_ghost=False the ghost cluster's factor prod_i f_i(0)^{m_i}
    is dropped: on one factor (f, S) that is the ghost-free factor of the
    disjoint-support factorization, where the connectivity indicator keeps
    S off the ghost's cluster.
    """
    labels = np.array([_omega_labels(aug, omega)])
    table = _ClusterFactors(aug.base, factors)
    return complex(table.of_rows(labels, include_ghost)[0])


def event_Z(
    aug: AugmentedGraph,
    omega: Sequence[int],
    R: Iterable[str],
    S: Iterable[str],
) -> int:
    """1 iff no open path joins S to R or to the ghost."""
    labels = _omega_labels(aug, omega)
    blocked = {labels[v] for v in region_indices(aug.base, R)}
    blocked.add(labels[aug.ghost_index])
    return 0 if any(labels[v] in blocked for v in region_indices(aug.base, S)) else 1


def rc_expectation(
    aug: AugmentedGraph,
    factors: Sequence[tuple[SpinFunction, Iterable[str]]],
    cap: int | None = None,
) -> complex:
    """phi-average of the conditional expectation (the tower identity LHS)."""
    table = _ClusterFactors(aug.base, factors)
    labels, weights = _bond_partitions(aug, cap)
    g = table.of_rows(labels)
    z = fsum(weights.tolist())
    return complex(fsum((weights * g.real).tolist()) / z,
                   fsum((weights * g.imag).tolist()) / z)
