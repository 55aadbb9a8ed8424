"""Ghost-vertex random-cluster (FK) representation of the Potts model.

The base graph gains a ghost vertex joined to every real vertex. Real
edges open with probability 1 - exp(-J_e), ghost edges with
1 - exp(-h_v). Bond configurations are weighted by

    prod_e p_e^{w_e} (1-p_e)^{1-w_e} * q^{k(w)}

where k counts all open clusters of the augmented graph, including the
ghost's. Colouring the ghost's cluster 0 and every other cluster with an
independent uniform spin recovers the Potts measure exactly. The exact
side of that coupling lives here: the coupled spin law, the conditional
expectations it induces, and the connectivity event used by the
disjoint-support inequality. mc samples it.

Every cluster label comes from _merge, which opens one bond in every row
of a label table: a single omega is labelled on a one-row table. Every
bond-side sum reads one table of partitions, built by adding the bonds
one at a time to at most about 2 Bell(n+1) label rows. That reduction is
compiled once per graph: _bond_plan, memoized by node count, live bonds
and cap, records the partitions, each regrouping's inverse and the
cluster counts, and _partition_table replays a model's weights through
it (an outer product per bond, np.bincount per regroup, q^k), the float
operations of carrying the weights along, so the table is the same bit
for bit. A table is one weight per plan row (0.0 where the product of
bond factors underflowed) and Z, memoized per augmented graph and cap
for Z, the coupled spin law and the tower mean. Plans and tables are
both functools.lru_cache(maxsize=64) memos. The spin law's cluster
layout is compiled once per plan and q too, with the index of every
state it adds while that index is small, and so is the tower mean's
_LabelIndex of the plan's rows. The cap bounds the plan's table, rows
times n+1 labels, before each bond doubles it, and not the 2^|E+| bond
configurations, which are never visited.
_ClusterFactors gives E(prod f^R | omega): of_rows for every row of a
label table in one numpy pass (the tower mean on its plan's index, and a
single omega as one row, indexed per call), and product for one omega
of mc's sampler, with touched_product, its bit-identical shortcut over the
clusters the regions touch; all share one memo of cluster factors per
value table. Every cluster's code lies below the factor list's code range,
so once a label table has a row per code, of_rows builds from that memo a
table of the ghost and of the cluster factor of every code and gathers from
it; a list with more codes than rows (many factors, or one omega's row)
looks up the distinct codes it meets instead. A mean whose products of
factor values overflow float64 raises ModelError: rc_expectation and
conditional_expectation test the mean they return, and where the factors'
bound leaves room for an overflow, they run under np.errstate, so that it
runs to inf or NaN without a warning.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
from dataclasses import dataclass, field
from itertools import product
from math import copysign, expm1, factorial, fsum, isfinite, log2, nan
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .model import (
    DEFAULT_STATE_CAP,
    EnumerationTooLarge,
    ModelError,
    PottsModel,
    SpinFunction,
    _check_cap,
    check_factors,
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
    # the fields' hash, taken once: _partition_table's memo hashes a graph
    # on every call, and the hash walks the whole model
    _hash: int = field(init=False, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return self.base.n_vertices

    @property
    def n_bonds(self) -> int:
        return len(self.edge_index)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.base, self.edge_index, self.p)))

    def __hash__(self) -> int:
        return self._hash


def augment(model: PottsModel) -> AugmentedGraph:
    """Attach the ghost vertex; every vertex gets a ghost edge (p=0 if h=0)."""
    n = model.n_vertices
    pairs = [*model.index_pairs, *((n, i) for i in range(n))]
    p = [min(-expm1(-J), _P_MAX) for J in model.J]
    p += [min(-expm1(-h), _P_MAX) for h in model.h]
    return AugmentedGraph(model, tuple(pairs), tuple(p))


_CHAR_BITS = {"0": 0, "1": 1}


def _check_bond_config(aug: AugmentedGraph, omega: Sequence[int] | str) -> list[int]:
    """omega as a list of 0s and 1s, one per bond of E+. An entry is 0 or 1
    as an int or a bool, or the character '0' or '1', so a 01 string is a
    configuration; anything else (1.5, 'x', None) is refused, not coerced.
    The message shows omega with each character bit read as its int."""
    try:
        bits = [_CHAR_BITS.get(b, b) for b in omega]
    except TypeError:  # omega is not iterable, or an entry not hashable
        bits = omega
    else:
        if len(bits) == aug.n_bonds and all(
            isinstance(b, (int, np.integer, np.bool_)) and b in (0, 1) for b in bits
        ):
            return [int(b) for b in bits]
    raise ModelError(f"bond configuration must be {aug.n_bonds} bits over E+, got {bits!r}")


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


def _group_partitions(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row per distinct partition, and the int32 index of each row's."""
    n1 = labels.shape[1]
    if n1 <= len(_FACTORIALS):
        keys = labels @ _FACTORIALS[:n1]
    else:  # the factorial key would overflow int64: compare the rows' bytes
        keys = np.ascontiguousarray(labels).view(np.dtype((np.void, n1))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return labels[first], inverse.astype(np.int32)


class _LabelIndex(NamedTuple):
    """What _ClusterFactors.of_rows reads of a label table: no factor changes it."""

    flat: np.ndarray  # flat[r, v]: the position of row r's entry for v's root
    roots: np.ndarray  # each row's roots away from the ghost's, as a mask
    ghost: np.ndarray  # flat[:, -1], a view: the position of the ghost's root


def _label_index(labels: np.ndarray) -> _LabelIndex:
    """The read-only _LabelIndex of a _merge label table, as positions into
    its rows * (n+1) entries: once per plan for the tower mean, and per call
    for conditional_expectation's one row."""
    rows, n1 = labels.shape
    flat = labels + np.arange(0, rows * n1, n1)[:, None]
    # compared in the labels' own dtype: casting costs more than the comparison
    roots = (labels == np.arange(n1, dtype=labels.dtype)) & (labels != labels[:, -1:])
    flat.flags.writeable = roots.flags.writeable = False
    return _LabelIndex(flat, roots, flat[:, -1])


@dataclass(frozen=True, eq=False)
class _BondPlan:
    """What reducing one graph's bonds leaves that no weight changes.

    `labels` are the final partitions (int8, read-only), `k` their fixed
    points, and regroups[i] the inverse of the regrouping after live bond
    i (None where the table stayed small), the final one last. `layouts`
    holds coupled_spin_marginal's _SpinLayout per q, and `index` the tower
    mean's _LabelIndex of the labels, each built on first use.
    """

    labels: np.ndarray
    k: np.ndarray
    regroups: tuple[np.ndarray | None, ...]
    layouts: dict

    @functools.cached_property
    def index(self) -> _LabelIndex:
        return _label_index(self.labels)


# The coupling benchmark's 56 suite models and its K5 graphs make 35 keys
# (node count, live bonds, cap), each plan under 12 KB, its spin layout
# under 51 KB with its state index (181 KB of index over all 35) and its
# label index under 11 KB (40 KB over all 35); a graph near the cap makes
# far larger plans, about 21 MB for the 2x6 ladder (4.16 M int8 labels,
# 3.56 M int32 regroup entries), whose state index streams, and 37 MB more
# once the tower mean builds its label index. Both memos keep 64 entries:
# at most 64 plans, and 64 tables of 8 bytes per plan row beside them
# (2.6 MB per weighting of the ladder's 320,107 rows)
@functools.lru_cache(maxsize=64)
def _bond_plan(n1: int, bonds: tuple[tuple[int, int], ...], cap: int) -> _BondPlan:
    """The partitions of n1 nodes that the live bonds reach; see _partition_table.

    The bonds are added one at a time to a table of label rows: each bond
    appends the table's _merge'd copy, and rows of one partition are merged
    whenever the table passes _PARTITION_ROWS rows, and once at the end. The
    table so stays below 2 * max(_PARTITION_ROWS, Bell(n1)) rows. Each
    doubling is checked against the cap before it is allocated, and the int8
    labels limit the graph to 127 nodes.
    """
    if n1 > 127:
        raise EnumerationTooLarge(
            f"the partition table over {n1} nodes: int8 labels take at most 127"
        )
    labels = np.arange(n1, dtype=np.int8)[None, :]
    regroups = []
    for a, b in bonds:
        _check_cap(2 * labels.size, cap,
                   "a partition table of %d rows x %d labels", 2 * len(labels), n1)
        labels = np.concatenate([labels, _merge(labels, a, b)])
        inverse = None
        if len(labels) > _PARTITION_ROWS:
            labels, inverse = _group_partitions(labels)
        regroups.append(inverse)
    labels, inverse = _group_partitions(labels)
    regroups.append(inverse)
    labels.flags.writeable = False
    k = np.count_nonzero(labels == np.arange(n1), axis=1)
    return _BondPlan(labels, k, tuple(regroups), {})


class _Table(NamedTuple):
    """One model's replay of a plan."""

    plan: _BondPlan
    weights: np.ndarray  # the weight of every row of plan.labels, 0.0 if underflowed
    z: float  # Z_rc, the fsum of the weights


# a caller asks for one graph's table a few times in a row (the spin law,
# the tower mean, rc_probability per omega); see _bond_plan for the bytes
@functools.lru_cache(maxsize=64)
def _partition_table(aug: AugmentedGraph, cap: int) -> _Table:
    """The weight of each of the plan's partitions, and Z_rc.

    weights[j] sums the weights of every bond configuration whose
    partition is row j of plan.labels, so a function of the partition
    alone is averaged over at most Bell(n+1) rows instead of 2^m. The plan
    is that of the graph's live bonds (p > 0: a merged row of a dead bond
    would weigh 0, the rest x1), and the weights replay its steps: a bond
    appends the rows' weights times p to their weights times 1-p (one outer
    product), a regroup sums them by its inverse, and q^k multiplies in at
    the end. These are the float operations, in the same order, of
    reducing labels and weights together, and no bond configuration is
    visited. A partition whose product of bond factors underflows weighs
    0.0, even if q^k times it would be representable. Z_rc is the fsum of
    the weights, which zeros leave as the fsum of the positive ones. The
    cap bounds the label table _bond_plan builds, rows times n+1 labels;
    a smaller cap misses the memo and raises. The weights are read-only.
    """
    live = [(bond, p) for bond, p in zip(aug.edge_index, aug.p) if p != 0.0]
    plan = _bond_plan(aug.n_vertices + 1, tuple(bond for bond, _ in live), cap)
    weights = np.ones(1)
    for (_, p), inverse in zip(live, plan.regroups):
        weights = np.multiply.outer((1.0 - p, p), weights).ravel()
        if inverse is not None:
            weights = np.bincount(inverse, weights)
    weights = np.bincount(plan.regroups[-1], weights) * float(aug.base.q) ** plan.k
    weights.flags.writeable = False
    return _Table(plan, weights, fsum(weights.tolist()))


def rc_weight(aug: AugmentedGraph, omega: Sequence[int]) -> float:
    """Unnormalized weight prod p^w (1-p)^(1-w) * q^k, k incl. ghost cluster."""
    bits = _check_bond_config(aug, omega)
    w = float(aug.base.q) ** len(set(_omega_labels(aug, bits)))
    for p, bit in zip(aug.p, bits):
        w *= p if bit else 1.0 - p
    return w


def rc_partition(aug: AugmentedGraph, cap: int = DEFAULT_STATE_CAP) -> float:
    """Z of the ghost random-cluster measure: the partitions' summed weights."""
    return _partition_table(aug, cap).z


def rc_probability(
    aug: AugmentedGraph, omega: Sequence[int], cap: int = DEFAULT_STATE_CAP
) -> float:
    """phi(omega), normalized over all of Omega+."""
    return rc_weight(aug, omega) / rc_partition(aug, cap)


# ---------------------------------------------------------------------------
# cluster-spin coupling
# ---------------------------------------------------------------------------


class _SpinLayout(NamedTuple):
    """A plan's partitions as coupled_spin_marginal colours them at one q."""

    order: np.ndarray  # the plan's rows in order of k, stable
    groups: tuple[tuple[int, int, np.ndarray], ...]  # (k, first row, strides)
    grid: np.ndarray  # digits of the colourings of `slots` slots
    slots: int
    divisor: np.ndarray  # q^k of every plan row, as float64
    # the chunks joined into one, while they are small: (state indices,
    # order, q^k per row of order); None past the budget
    entries: tuple[tuple[np.ndarray, np.ndarray, np.ndarray]] | None


def _spin_chunks(
    layout: _SpinLayout, q: int
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """(state indices, plan rows, q^k states per row) per chunk, in the order
    coupled_spin_marginal adds them.

    A partition's q^k states are strides_j @ grid_k: the i-th stride sums
    the place values of the i-th cluster's vertices, and the columns of
    grid_k are the q^k colourings of k slots. Partitions with the same k
    share one matrix product per chunk of _STATE_BLOCK // q^k rows (one row
    if q^k is larger), whose indices list each row's states in turn. grid
    covers only the slots whose colourings fit in _STATE_BLOCK columns; a
    row with more clusters adds its remaining slots' colourings one at a
    time as an offset, one chunk each.
    """
    order, groups, grid, slots = layout[:4]
    for k, row, k_strides in groups:
        size = len(k_strides)
        k_rows = order[row : row + size]
        low = min(k, slots)
        rows = max(1, _STATE_BLOCK // q**k)
        for start in range(0, size, rows):
            chunk = slice(start, start + rows)
            low_flat = k_strides[chunk, k - low :] @ grid[slots - low :, : q**low]
            for high in product(range(q), repeat=k - low):
                flat = low_flat
                if high:  # the colourings of the slots past the grid
                    flat = low_flat + (k_strides[chunk, : k - low] @ high)[:, None]
                yield flat.astype(np.intp).ravel(), k_rows[chunk], q**low


def _spin_layout(plan: _BondPlan, q: int) -> _SpinLayout:
    """The plan's _SpinLayout at q, built on first use; see coupled_spin_marginal.

    The strides, the order by k, the grid and the divisors q^k depend on the
    plan and q only. So do the state indices _spin_chunks yields. While
    there are at most _STATE_BLOCK // 2 of them (64 KB of intp), every row's
    q^k <= _STATE_BLOCK, so no row needs an offset, and the chunks list the
    rows of `order` in turn, each with its q^k states: their indices are
    joined here in the order they come, and `entries` pairs them with
    `order` and those q^k. A larger plan keeps entries None and streams its
    chunks on every call.
    """
    layout = plan.layouts.get(q)
    if layout is not None:
        return layout
    labels = plan.labels
    n = labels.shape[1] - 1
    # float64, so that the product runs in BLAS; every index is an integer
    # below q^n, which the cap keeps far below 2^53
    place = float(q) ** np.arange(n - 1, -1, -1)
    slots = 0
    while slots < n and q ** (slots + 1) <= _STATE_BLOCK:
        slots += 1
    # row i holds digit i of the column index, so the last j rows of the
    # first q^j columns are the colourings of j slots
    grid = (np.arange(q**slots) // place[n - slots :, None] % q).astype(np.float64)
    real = labels[:, :n]
    roots = (real == np.arange(n)) & (real != labels[:, n:])
    counts = np.count_nonzero(roots, axis=1)
    # partitions in order of k; strides lists their clusters' strides in turn
    order = np.argsort(counts, kind="stable")
    members = real[order][:, :, None] == np.arange(n)
    strides = np.einsum("jvr,v->jr", members, place)[roots[order]]
    groups, row, pos = [], 0, 0
    sizes = np.bincount(counts).tolist()
    for k, size in enumerate(sizes):
        groups.append((k, row, strides[pos : pos + size * k].reshape(size, k)))
        row, pos = row + size, pos + size * k
    powers = [q**k for k in range(len(sizes))]
    # the Python ints q^k as float64, as a division by q**k converts them
    divisor = np.array(powers, dtype=np.float64)[counts]
    layout = _SpinLayout(order, tuple(groups), grid, slots, divisor, None)
    if sum(map(int.__mul__, sizes, powers)) <= _STATE_BLOCK // 2:
        index = np.concatenate([flat for flat, _, _ in _spin_chunks(layout, q)])
        states = np.array(powers, dtype=np.intp)[counts[order]]
        layout = layout._replace(entries=((index, order, states),))
    plan.layouts[q] = layout
    return layout


def coupled_spin_marginal(aug: AugmentedGraph, cap: int = DEFAULT_STATE_CAP) -> np.ndarray:
    """Spin law sum_w phi(w) P(sigma|w), over lexicographic spin states.

    Must agree with the Potts measure; the acceptance suite checks total
    variation against potts_distribution. A partition of the bond plan
    gives each of its k clusters away from the ghost one uniform colour, so
    each of its q^k states has weight w_j / q^k. The states come from the
    plan's _SpinLayout: its memoized index of every state, row by row, when
    that fits the budget, otherwise the same indices in the same order from
    _spin_chunks, no chunk past about _STATE_BLOCK states. Either way a
    call divides the plan's weights by q^k once, repeats each row's
    weight over its states, and np.add.at adds each state's terms in the
    order of the chunks, so the law is the same bit for bit on both routes.
    No state is listed twice, the work is sum_j q^(k_j), and a row of the
    plan whose weight underflowed adds zeros.
    """
    n, q = aug.n_vertices, aug.base.q
    _check_cap(q**n, cap, "the spin law over %d^%d states", q, n)
    table = _partition_table(aug, cap)
    layout = _spin_layout(table.plan, q)
    scaled = table.weights / layout.divisor
    marginal = np.zeros(q**n)
    for index, rows, states in layout.entries or _spin_chunks(layout, q):
        np.add.at(marginal, index, np.repeat(scaled[rows], states))
    return marginal / table.z


# ---------------------------------------------------------------------------
# conditional expectations given the bond configuration
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def _factor_powers(values: bytes, q: int, max_m: int) -> tuple[np.ndarray, dict, dict,
                                                                float]:
    """powtab of the factors' value table (its complex128 bytes), the memos
    of ghost and cluster factors by code, shared by every _ClusterFactors of
    these values and this max_m (a factor depends on nothing else), and
    log2 of prod_i max(1, max_y |f_i(y)|)^max_m, which bounds every power,
    the factor of every code and every product of a row's factors. A power
    past float64 is inf, or NaN, without a warning; only a mean that reads
    it overflows, and the callers test their means."""
    values = np.frombuffer(values, dtype=np.complex128).reshape(-1, q)
    bits = max_m * sum(log2(max(1.0, *map(abs, row))) for row in values.tolist())
    powtab = np.empty((len(values), q, max_m + 1), dtype=np.complex128)
    powtab[:, :, 0] = 1.0
    with _overflow_context(bits):
        for m in range(1, max_m + 1):
            powtab[:, :, m] = powtab[:, :, m - 1] * values
    powtab.flags.writeable = False
    return powtab, {}, {}, bits


def _overflow_context(bits: float):
    """np.errstate that lets a product run to inf or NaN without a warning,
    where 2^bits, a bound on it, may pass float64; else a null context."""
    if bits < 1000.0:
        return contextlib.nullcontext()
    return np.errstate(over="ignore", invalid="ignore")


def _fixed_by_one(z: complex) -> bool:
    """Whether z * (1+0j) is z bit for bit: both parts finite and neither -0.0."""
    return all(isfinite(x) and (x != 0.0 or copysign(1.0, x) > 0.0)
               for x in (z.real, z.imag))


class _ClusterFactors:
    """E( prod_i f_i(sigma)^{R_i} | omega ) as a product over omega's clusters.

    The ghost's cluster contributes prod_i f_i(0)^{m_i}, every other cluster
    (1/q) sum_y prod_i f_i(y)^{m_i}, where m_i = |R_i ∩ cluster|. Built once
    per factor list; powtab[i, x, m] = f_i(x)**m comes from repeated numpy
    multiplication, the arithmetic the Monte Carlo digest was frozen with. A
    member (v, base**i) per vertex of each region makes a cluster's m_i the
    base-(max_m + 1) digits of one code, by which both factors are memoized.
    powtab, the two memos and the bound come from _factor_powers, so factor
    lists with the same values and max_m share them, whatever their regions.
    Every code is below code_range, 1 + the sum of the members' weights, as
    no cluster holds more than every member; of_rows tabulates the codes
    below it.
    """

    def __init__(self, base: PottsModel, factors) -> None:
        self.prepared = prepared = check_factors(base, factors)
        max_m = max((len(idx) for _, idx in prepared), default=0)
        values = np.array([f.values for f, _ in prepared], dtype=np.complex128)
        self.powtab, self._ghost, self._cluster, self._peak_bits = _factor_powers(
            values.tobytes(), base.q, max_m)
        self.members = [(v, (max_m + 1) ** i) for i, (_, idx) in enumerate(prepared)
                        for v in sorted(idx)]
        self._member_v = np.array([v for v, _ in self.members], dtype=np.intp)
        self._member_w = np.array([w for _, w in self.members], dtype=np.float64)
        # no cluster's code reaches it: no cluster holds more than every member
        self.code_range = 1 + sum(w for _, w in self.members)

    def errstate(self, weight: float):
        """_overflow_context for a mean of the factors' products with weights
        summing to at most weight: the bound of _factor_powers times that
        weight, q for a cluster's sum over colours and 2 for the cross terms
        of a complex product."""
        return _overflow_context(self._peak_bits
                                 + log2(2.0 * self.powtab.shape[1] * weight))

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

    def product(self, root, groot, roots) -> complex:
        """root[v] is the cluster root of real vertex v, groot the ghost's.

        The ghost's factor comes first, then the factor of each other root
        in the order given; a cluster that no region touches has factor
        exactly 1.
        """
        code_of = self._codes(root)
        ghost, cluster = self._ghost, self._cluster
        code = code_of.get(groot, 0)
        val = ghost[code] if code in ghost else self._ghost_factor(code)
        for x in roots:
            code = code_of.get(x, 0)
            val = val * (cluster[code] if code in cluster else self._mixed_moment(code))
        return val

    def touched_product(self, root, groot) -> complex | None:
        """product() with every root, bit for bit, from the touched roots
        alone, or None where the two could differ.

        The ghost's factor comes first, then the factor of each root that a
        region touches, in increasing root order. product() also multiplies
        by each untouched cluster's factor, exactly 1+0j, which leaves a
        partial product (a, b) as it is unless a or b is -0.0, whose sign it
        can flip, or not finite. So if any partial product here holds such a
        component, the answer is None, and only product() gives the bits.
        """
        code_of = self._codes(root)
        code = code_of.pop(groot, 0)
        ghost, cluster = self._ghost, self._cluster
        val = ghost[code] if code in ghost else self._ghost_factor(code)
        if not _fixed_by_one(val):
            return None
        for x in sorted(code_of):
            code = code_of[x]
            val = val * (cluster[code] if code in cluster else self._mixed_moment(code))
            if not _fixed_by_one(val):
                return None
        return val

    def _codes(self, root) -> dict[int, int]:
        """The code of each root that holds a member; an untouched one has 0."""
        code_of: dict[int, int] = {}
        for v, w in self.members:
            r = root[v]
            code_of[r] = code_of.get(r, 0) + w
        return code_of

    def of_rows(self, labels, include_ghost: bool = True) -> np.ndarray:
        """product() for every row of a _merge label table, in one numpy pass.

        `labels` is the table or its _label_index: the tower mean passes its
        plan's index, built once per plan, and a bare table, such as one
        omega's row, is indexed here. A row's roots are its fixed points;
        the ghost's root is labels[:, -1]. One bincount sums each member's
        weight at its root, giving every cluster's code. The factors come
        from the memo product() shares: on a table of at least code_range
        rows, through _code_tables, built on the first such call and read
        with one gather per table; on a smaller one (many factors, or one
        omega's row), _lookup takes the distinct codes it meets. The ghost's
        factor sits in the ghost's column, the others at their roots, and 1
        everywhere else, so a row's product is the product of its columns.
        """
        if self.code_range > 2**53:
            raise ModelError(
                f"{len(self.prepared)} factors: cluster codes would not be exact "
                "in float64"
            )
        flat, roots, ghost = (labels if isinstance(labels, _LabelIndex)
                              else _label_index(labels))
        rows, n1 = roots.shape
        member_w = self._member_w[None, :].repeat(rows, axis=0)
        codes = np.bincount(flat[:, self._member_v].ravel(), member_w.ravel(),
                            minlength=rows * n1)
        values = np.ones((rows, n1), dtype=np.complex128)
        if rows >= self.code_range:
            ghost_of, cluster_of = self._code_tables
            codes = codes.astype(np.intp)
            values[roots] = cluster_of[codes.reshape(rows, n1)[roots]]
            if include_ghost:
                values[:, -1] = ghost_of[codes[ghost]]
        else:
            values[roots] = self._lookup(self._cluster, self._mixed_moment,
                                         codes.reshape(rows, n1)[roots])
            if include_ghost:
                values[:, -1] = self._lookup(self._ghost, self._ghost_factor, codes[ghost])
        return values.prod(axis=1)

    @functools.cached_property
    def _code_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The ghost and the cluster factor of every code below code_range,
        read-only, from the memos product() shares."""
        codes = range(self.code_range)
        tables = (self._factors(self._ghost, self._ghost_factor, codes),
                  self._factors(self._cluster, self._mixed_moment, codes))
        for table in tables:
            table.flags.writeable = False
        return tables

    @staticmethod
    def _factors(memo: dict, factor, codes) -> np.ndarray:
        """memo[code] (factor(code) on a miss) for each of the int codes."""
        return np.array([memo[c] if c in memo else factor(c) for c in codes],
                        dtype=np.complex128)

    @classmethod
    def _lookup(cls, memo: dict, factor, codes: np.ndarray) -> np.ndarray:
        """memo[code] (factor(code) on a miss) for every entry of `codes`."""
        keys = sorted(map(int, set(codes.tolist())))  # codes are exact in float64
        return cls._factors(memo, factor, keys)[np.array(keys).searchsorted(codes)]


def _finite(mean: complex, what: str) -> complex:
    """mean, unless a part of it is inf or NaN: then ModelError."""
    if not cmath.isfinite(mean):
        raise ModelError(f"{what} is {mean}: its product of factor values "
                         "overflows float64")
    return mean


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
    S off the ghost's cluster. A mean that overflows raises ModelError.
    """
    labels = np.array([_omega_labels(aug, omega)])
    table = _ClusterFactors(aug.base, factors)
    with table.errstate(1.0):
        mean = complex(table.of_rows(labels, include_ghost)[0])
    return _finite(mean, "the conditional mean")


def event_Z(
    aug: AugmentedGraph,
    omega: Sequence[int],
    R: Iterable[str],
    S: Iterable[str],
) -> int:
    """1 iff no open path joins S to R or to the ghost."""
    labels = _omega_labels(aug, omega)
    blocked = {labels[v] for v in region_indices(aug.base, R)}
    blocked.add(labels[aug.n_vertices])
    return 0 if any(labels[v] in blocked for v in region_indices(aug.base, S)) else 1


def rc_expectation(
    aug: AugmentedGraph,
    factors: Sequence[tuple[SpinFunction, Iterable[str]]],
    cap: int = DEFAULT_STATE_CAP,
) -> complex:
    """phi-average of the conditional expectation (the tower identity LHS).

    The conditional expectation is taken on every row of the plan, through
    its label index, and summed over the rows of positive weight: a row
    whose weight underflowed to 0.0 is left out, as 0.0 times an infinite
    value would be NaN. A mean that overflows raises ModelError.
    """
    factor_table = _ClusterFactors(aug.base, factors)
    table = _partition_table(aug, cap)
    keep = table.weights > 0.0
    with factor_table.errstate(table.z):
        g, weights = factor_table.of_rows(table.plan.index)[keep], table.weights[keep]
        terms = (weights * g.real).tolist(), (weights * g.imag).tolist()
    try:
        mean = complex(fsum(terms[0]) / table.z, fsum(terms[1]) / table.z)
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        mean = complex(nan, nan)
    return _finite(mean, "the tower mean")
