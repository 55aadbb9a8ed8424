"""Ferromagnetic q-state Potts model on a finite graph, with exact sums.

The probability of a spin configuration sigma is proportional to

    exp( sum_e J_e [sigma_x == sigma_y]  +  sum_v h_v [sigma_v == 0] )

with non-negative couplings J and fields h. Expectations of products
prod_{v in R} f(sigma_v) are exact sums over the q^|V| spin states,
computed by variable elimination: the weight factorises into one table
per vertex (field and f) and one per edge (coupling), and summing the
vertices out in a min-degree order costs O(|V| q^(w+1)), where w is the
order's width. A vertex's bucket of tables is one einsum, or a chain of
two-operand einsums where that costs less. One reducer (spin_means)
returns log Z and every requested mean from a single elimination; the
other exact routines are thin callers of it. potts_distribution, which
needs the whole law, multiplies the same tables out into one q^|V| array
with one einsum that sums no index, instead of summing.

The tables come from one pair per model, PottsModel.shifted_tables: its
site and pair tables, built on first use and read-only. potts_distribution
reads them as they are; spin_means copies them once per column and writes
each column's factors into its copy.

Overflow policy: every table is shifted so that its largest entry, at
spin 0 or on the diagonal, is 1: a site table is 1 at sigma == 0 and
e^{-h_v} elsewhere, a pair table 1 on the diagonal and e^{-J_e} off it.
Their product is the weight divided by e^{sum(J) + sum(h)}, attained at
sigma == 0. Every entry lies in [0, 1] and the all-zero state contributes
1 to every partial sum, so the shifted partition sum is finite and at
least 1 for any finite J and h.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import json
import math
import operator
from dataclasses import dataclass, field
from math import fsum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

DEFAULT_STATE_CAP = 1 << 24


class ModelError(ValueError):
    """Invalid model, region, or function input."""


class EnumerationTooLarge(ModelError):
    """An exact sum needs a table larger than the cap; use the MC sampler.

    The cap is the routine's `cap` argument, DEFAULT_STATE_CAP (2**24
    entries) unless given. The table is q^(w+1) x columns for spin means
    (w the elimination width), all q^|V| states for the full spin law, and
    the partition table's rows x (|V|+1) labels for the random-cluster
    measure.
    """


# one object per distinct tuple that the plan memos hold, keys included:
# plans of one graph at several q, and of graphs that share a bucket, share
# their steps and sublists. Emptied once it passes a fixed size, so it stays
# bounded; a tuple interned before that stays valid, only no longer shared
_INTERNED: dict[tuple, tuple] = {}


def _intern(t: tuple) -> tuple:
    """The held tuple equal to t. A tuple first seen has its tuple items
    interned in turn; it is held itself when each of them is its held
    object, and as a copy of the held items otherwise, so one lookup serves
    a tuple seen before, however deep."""
    held = _INTERNED.get(t)
    if held is None:
        if len(_INTERNED) > 1 << 16:
            _INTERNED.clear()
        held = t
        if tuple in map(type, t):
            items = tuple(_intern(x) if type(x) is tuple else x for x in t)
            if any(map(operator.is_not, items, t)):
                held = items
        _INTERNED[held] = held
    return held


def _check_cap(entries: int, cap: int, what: str, *args) -> None:
    """Raise EnumerationTooLarge if a table of `entries` entries, described
    by `what % args` (formatted only then), exceeds the routine's `cap`."""
    if entries > cap:
        raise EnumerationTooLarge(f"{what % args}: {entries} entries exceed cap {cap}")


@dataclass(frozen=True)
class SpinFunction:
    """A function f: {0,...,q-1} -> C, stored as its value table."""

    values: tuple[complex, ...]
    # the values' hash, taken once: the membership memos hash a function on
    # every call
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if len(self.values) < 2:
            raise ModelError(f"spin function needs q >= 2 values, got {len(self.values)}")
        if not all(map(cmath.isfinite, self.values)):
            # a NaN or infinite value, which no moment comparison can
            # certify or refute
            raise ModelError(f"spin function values must be finite, got {self.values}")
        object.__setattr__(self, "_hash", hash((self.values,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def q(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.complex128)


@dataclass(frozen=True)
class PottsModel:
    """Problem instance: simple graph, couplings J, fields h, state count q.

    Vertices are named; edges are unordered pairs of names. J is aligned
    with `edges`, h with `vertices`. Construction validates all invariants.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    J: tuple[float, ...]
    h: tuple[float, ...]
    q: int

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(str(v) for v in self.vertices))
        object.__setattr__(
            self, "edges", tuple((str(u), str(v)) for u, v in self.edges)
        )
        object.__setattr__(self, "J", tuple(float(x) for x in self.J))
        object.__setattr__(self, "h", tuple(float(x) for x in self.h))
        _validate_model(self)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_states(self) -> int:
        return self.q ** len(self.vertices)

    @functools.cached_property
    def index_pairs(self) -> tuple[tuple[int, int], ...]:
        """The edges as pairs of vertex indices, in edge order; computed once
        per model (a cached_property, outside the fields, eq and hash)."""
        index = self._vertex_positions
        return _intern(tuple((index[u], index[v]) for u, v in self.edges))

    @functools.cached_property
    def field_free(self) -> bool:
        """Every h is 0; read once per model (a cached_property, outside the
        fields, eq and hash)."""
        return not any(self.h)

    @functools.cached_property
    def shifted_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The shifted (n, 1, q) site and (m, 1, q, q) pair tables, read-only:
        a site table is 1 at sigma == 0 and e^{-h_v} elsewhere, a pair
        table, indexed (sigma_u, sigma_v) in edge order, 1 on the diagonal
        and e^{-J_e} off it. Built once per model (a cached_property,
        outside the fields, eq, hash and repr); _tables copies them."""
        n, q, m = self.n_vertices, self.q, len(self.edges)
        shifts = np.exp(-np.array(self.h + self.J, dtype=float))  # e^{-h}, e^{-J}
        site = np.ones((n, 1, q))
        site[:, :, 1:] = shifts[:n, None, None]
        pair = np.empty((m, 1, q * q))
        pair[...] = shifts[n:, None, None]
        pair[..., :: q + 1] = 1.0  # the diagonal of each flattened q x q table
        pair = pair.reshape(m, 1, q, q)
        site.setflags(write=False)
        pair.setflags(write=False)
        return site, pair

    @functools.cached_property
    def _vertex_positions(self) -> dict[str, int]:
        """Each vertex name's index, built once per model."""
        return {v: i for i, v in enumerate(self.vertices)}

    def vertex_index(self, v: str) -> int:
        try:
            return self._vertex_positions[v]
        except (KeyError, TypeError):
            raise ModelError(f"unknown vertex {v!r}") from None

    @functools.cached_property
    def _edge_positions(self) -> dict[tuple[str, str], int]:
        """Each edge's index under both orientations, built once per model."""
        return {e: k for k, (u, v) in enumerate(self.edges) for e in ((u, v), (v, u))}

    def edge_position(self, u: str, v: str) -> int:
        """Index of the undirected edge <u,v> in the edge list."""
        try:
            return self._edge_positions[u, v]
        except KeyError:
            raise ModelError(f"no edge <{u},{v}> in model") from None

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "vertices": list(self.vertices),
            "edges": [
                {"u": u, "v": v, "J": J} for (u, v), J in zip(self.edges, self.J)
            ],
            "fields": {v: h for v, h in zip(self.vertices, self.h) if h != 0.0},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PottsModel":
        try:
            q = data["q"]  # the constructor refuses a q that is not an integer
            if not isinstance(data["vertices"], list):
                raise ModelError(f'"vertices" must be a list, got {data["vertices"]!r}')
            vertices = tuple(_name(v, "vertex") for v in data["vertices"])
            edges = tuple(
                (_name(e["u"], "edge end"), _name(e["v"], "edge end"))
                for e in data.get("edges", [])
            )
            J = tuple(_number(e.get("J", 0.0), "J") for e in data.get("edges", []))
            fields = data.get("fields", {}) or {}
            if not isinstance(fields, dict):
                raise ModelError(f'"fields" must be an object, got {fields!r}')
            for v in fields:
                if v not in vertices:
                    raise ModelError(f"field given for unknown vertex {v!r}")
            h = tuple(_number(fields.get(v, 0.0), f"field of {v!r}") for v in vertices)
        except KeyError as exc:
            raise ModelError(f"malformed model JSON: missing key {exc}") from exc
        except TypeError as exc:
            raise ModelError(f"malformed model JSON: {exc}") from exc
        return cls(vertices, edges, J, h, q)

    @classmethod
    def from_json_file(cls, path: str) -> "PottsModel":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def as_integer(raw: object, what: str) -> int:
    """An integer argument, such as q or a count, as an int: 2.7, "3" or
    True is refused with a ModelError that names it as `what`."""
    if isinstance(raw, bool) or not isinstance(raw, (int, np.integer)):
        raise ModelError(f"{what} must be an integer, got {raw!r}")
    return int(raw)


def _name(raw: object, what: str) -> str:
    """A vertex name from outside input, which must be a string: null, true
    or 1.5 is refused rather than turned into "None", "True" or "1.5"."""
    if not isinstance(raw, str):
        raise ModelError(f"{what} name must be a string, got {raw!r}")
    return raw


def _number(raw: object, what: str) -> float:
    """A coupling or field from outside input: "1.5", true or null is refused
    with a TypeError, which from_json_dict reports as malformed JSON."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float, np.integer)):
        raise TypeError(f"{what} must be a number, got {raw!r}")
    return float(raw)


def _validate_model(model: PottsModel) -> None:
    """Raise ModelError unless all invariants hold."""
    if as_integer(model.q, "q") < 2:
        raise ModelError(f"q must be >= 2, got {model.q}")
    if len(model.J) != len(model.edges):
        raise ModelError("J must align with the edge list")
    if len(model.h) != len(model.vertices):
        raise ModelError("h must align with the vertex list")
    if len(set(model.vertices)) != len(model.vertices):
        raise ModelError("duplicate vertex id")
    vset = set(model.vertices)
    seen = set()
    for u, v in model.edges:
        if u == v:
            raise ModelError(f"self-loop <{u},{v}>")
        if u not in vset or v not in vset:
            raise ModelError(f"edge <{u},{v}> uses unknown vertex")
        key = frozenset((u, v))
        if key in seen:
            raise ModelError(f"duplicate edge <{u},{v}>")
        seen.add(key)
    for J in model.J:
        if not (J >= 0.0) or math.isinf(J):
            raise ModelError(f"couplings must be finite and >= 0, got {J}")
    for h in model.h:
        if not (h >= 0.0) or math.isinf(h):
            raise ModelError(f"fields must be finite and >= 0, got {h}")


def region_indices(model: PottsModel, region: Iterable[str]) -> tuple[int, ...]:
    """Map vertex names to indices, rejecting repeats (regions are sets)."""
    names = list(region)
    if len(set(names)) != len(names):
        raise ModelError(f"region {names!r} repeats a vertex")
    return tuple(model.vertex_index(v) for v in names)


def check_factors(
    model: PottsModel, factors: Sequence[tuple[SpinFunction, Iterable[str]]]
) -> list[tuple[SpinFunction, tuple[int, ...]]]:
    out = []
    for f, region in factors:
        if f.q != model.q:
            raise ModelError(f"spin function has q={f.q}, model has q={model.q}")
        out.append((f, region_indices(model, region)))
    return out


# ---------------------------------------------------------------------------
# variable elimination
# ---------------------------------------------------------------------------


def _tables(
    model: PottsModel, n_cols: int, dtype: type = float
) -> tuple[np.ndarray, np.ndarray]:
    """Writable (n, C, q) site and (m, C, q, q) pair tables for spin_means,
    which writes each column's factors into its own: C = n_cols copies of
    the model's shifted_tables along axis 1, the site tables in dtype.
    potts_distribution reads shifted_tables without a copy."""
    site, pair = model.shifted_tables
    site = site.repeat(n_cols, axis=1).astype(dtype, copy=False)
    return site, pair.repeat(n_cols, axis=1)


def _coordinate_position(model: PottsModel, coordinate) -> tuple[bool, int]:
    """Where a coordinate's Kronecker delta, the derivative of the
    log-weight in that coordinate, acts: (True, v) for the field at the
    vertex v, sigma_v == 0; (False, k) for the coupling of the edge k,
    sigma_u == sigma_v."""
    if isinstance(coordinate, str):
        return True, model.vertex_index(coordinate)
    if not isinstance(coordinate, (tuple, list)) or len(coordinate) != 2:
        raise ModelError(
            f"a coordinate is a vertex name or a (u, v) edge, got {coordinate!r}"
        )
    return False, model.edge_position(*coordinate)


class _Plan(NamedTuple):
    """Bucket elimination of one graph: einsum steps over operand ids.

    Operands 0..n-1 are the site tables, n..n+m-1 the pair tables in edge
    order, and step k appends operand n+m+k. Every operand has the column
    axis, labelled 0, in front of its vertex axes.
    """

    width: int  # most neighbours a vertex has when it is summed out
    steps: tuple[tuple, ...]  # (operand ids, their sublists, output sublist)
    roots: tuple[int, ...]  # the operands left with only the column axis


# What one np.einsum call costs besides its multiply-adds, in multiply-adds:
# about 2.5 us of dispatch against about 5 ns a multiply-add in the loop of an
# einsum over many operands, the one a split replaces (numpy 2.4, 2-vCPU Xeon)
_CALL_COST = 500
# the most operands one einsum takes: a bucket with more is paired down
# before its last einsum, and potts_distribution folds a longer product in
# runs. numpy 2 takes 63 (64 arrays with its output), but the elimination
# plans that the tests pin were compiled with 31, and a larger bound would
# change them
_EINSUM_OPERANDS = 31


def _bucket_pairs(
    scopes: list[tuple], vertices: tuple, n_kept: int, width: int, q: int
) -> list[tuple]:
    """The two-operand steps that open one bucket's contraction.

    scopes are the scopes of the bucket's operands, vertices the bucket's,
    and its output keeps the last n_kept of them. Pairs are taken
    greedily, the one with the smallest result first (then the smallest
    joint scope, then the lowest operands), and only while that result has
    at most `width` vertices; pair j appends operand len(scopes) + j. A
    result keeps the vertices that the output or another operand still
    holds. An einsum costs _CALL_COST plus its operands times
    q^(its vertices), and the steps returned are the prefix of that order
    that, with one einsum over the operands it leaves, costs least (ties
    to the shorter prefix): [] keeps the bucket one einsum. A bucket of at
    most _CALL_COST entries stays whole without the search, since an
    operand that a pair takes out of its einsum saves less than the pair's
    call. Returns [(a, b, result scope)], the scope in the order of
    `vertices`. The search itself is _pair_steps, on the scopes as masks.
    """
    k, entries = len(scopes), q ** len(vertices)
    if k <= _EINSUM_OPERANDS and (k < 3 or entries <= _CALL_COST):
        return []
    bit = {x: 1 << j for j, x in enumerate(vertices)}
    masks = tuple(sum(bit[x] for x in scope) for scope in scopes)
    return [
        (a, b, tuple(x for x in vertices if bit[x] & result))
        for a, b, result in _pair_steps(masks, len(vertices), n_kept, width, q)
    ]


# the search reads only the operands' masks and its scalars, so one entry
# serves every bucket of that shape: a 60,000-trial fuzz at n <= 5 meets 35
@functools.lru_cache(maxsize=1024)
def _pair_steps(
    masks: tuple[int, ...], n_vertices: int, n_kept: int, width: int, q: int
) -> tuple[tuple[int, int, int], ...]:
    """_bucket_pairs' greedy search on the operands' vertex bitmasks (bit j
    is the bucket's vertex j; the output keeps the top n_kept bits).
    Returns ((a, b, result mask), ...).

    A step changes how many operands hold a vertex only if both of its
    operands hold it, and then its result holds it unless it is summed out
    (and so held by no other operand). So a pair that outlives a step
    scores the same after it as before: each pair is scored once, when its
    newer operand appears, and a heap yields the greedy order.
    """
    k, entries, masks = len(masks), q**n_vertices, list(masks)
    # how many live operands hold each vertex
    held = {1 << j: sum(m >> j & 1 for m in masks) for j in range(n_vertices)}
    keep = ((1 << n_kept) - 1) << (n_vertices - n_kept)

    def scored(older, b):  # the heap entries of the pairs (a, b), a in older
        needed = keep | sum(y for y, c in held.items() if c > 2)
        twice = sum(y for y, c in held.items() if c == 2)
        for a in older:
            joint = masks[a] | masks[b]
            result = joint & (needed | (twice & ~(masks[a] & masks[b])))
            yield result.bit_count(), joint.bit_count(), a, b, result

    heap = [entry for b in range(1, k) for entry in scored(range(b), b)]
    heapq.heapify(heap)
    live, pairs, cost = set(range(k)), [], 0
    best = (_CALL_COST + k * entries if k <= _EINSUM_OPERANDS else math.inf, 0)
    while heap:
        size, joint, a, b, result = heapq.heappop(heap)
        if a not in live or b not in live:
            continue
        if size > width:
            break
        live.difference_update((a, b))
        for y in held:
            held[y] += bool(result & y) - bool(masks[a] & y) - bool(masks[b] & y)
        masks.append(result)
        pairs.append((a, b, result))
        cost += _CALL_COST + 2 * q**joint
        for entry in scored(live, len(masks) - 1):
            heapq.heappush(heap, entry)
        live.add(len(masks) - 1)
        if len(live) > _EINSUM_OPERANDS:
            continue
        rest = 0  # the last pair made the output
        if len(live) > 1:
            rest = _CALL_COST + len(live) * q ** sum(1 for c in held.values() if c)
        if cost + rest < best[0]:
            best = (cost + rest, len(pairs))
    return tuple(pairs[: best[1]])


# The default fuzzer draws n <= 5: 1,099 labelled graphs, 4,396 (graph, q)
# plan keys, and both memos hold every one. With their tuples interned, all
# 4,396 plans and their orders hold 1.62 MiB (tracemalloc after a full
# collection), where 512 plans unshared held 1.23 MiB. Every graph on 6
# vertices (131,072 keys) would not fit: a sweep over them evicts.
# Python 3.11, 2-vCPU Xeon.
@functools.lru_cache(maxsize=8192)
def _elimination_order(n: int, pairs: tuple[tuple[int, int], ...]) -> tuple[tuple, int]:
    """Min-degree order (ties to the lower index) and its width w, the most
    neighbours a vertex has when it is summed out. Cheap next to the plan's
    einsum steps, so a cap can be checked on w before they are compiled."""
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    order, width, left = [], 0, set(range(n))
    while left:
        v = min(left, key=lambda x: (len(adj[x]), x))
        left.remove(v)
        for a in adj[v]:
            adj[a].discard(v)
            adj[a].update(b for b in adj[v] if b != a)
        width = max(width, len(adj[v]))
        order.append(v)
    return _intern(tuple(order)), width


@functools.lru_cache(maxsize=8192)
def _elimination_plan(n: int, pairs: tuple[tuple[int, int], ...], q: int) -> _Plan:
    """The einsum steps of _elimination_order.

    Each bucket sums out one vertex, except the last, which sums out every
    vertex left once at most w + 1 remain: no bucket spans more than w + 1
    vertices, and small graphs take fewer steps. A bucket is one einsum
    over its operands unless, at this q, opening it with two-operand steps
    (_bucket_pairs) costs less; a table such a step makes lies within the
    bucket and has at most w vertices. So the largest table stays q^(w+1)
    entries per column.
    """
    order, width = _elimination_order(n, pairs)
    scopes = [(v,) for v in range(n)] + list(pairs)
    holders = [{v} for v in range(n)]  # the operands not yet summed, per vertex
    for i, (u, v) in enumerate(pairs, n):
        holders[u].add(i)
        holders[v].add(i)
    steps, roots = [], []
    for k, v in enumerate(order):
        group = order[k:] if n - k <= width + 1 else [v]
        ids = sorted(set().union(*(holders[x] for x in group)))
        kept = sorted({x for i in ids for x in scopes[i]}.difference(group))
        for x in kept:
            holders[x].difference_update(ids)
        vertices = (*group, *kept)
        axis = {x: j for j, x in enumerate(vertices, 1)}

        def step(operands, scope) -> int:  # one einsum; the operand it appends
            subs = tuple((0, *map(axis.get, scopes[i])) for i in operands)
            steps.append((tuple(operands), subs, (0, *map(axis.get, scope))))
            scopes.append(tuple(scope))
            return len(scopes) - 1

        split = _bucket_pairs([scopes[i] for i in ids], vertices, len(kept), width, q)
        summed = set()
        for a, b, scope in split:
            summed.update((ids[a], ids[b]))
            ids.append(step((ids[a], ids[b]), scope))
        ids = [i for i in ids if i not in summed]
        if len(ids) > 1 or not split:  # else the last pair made the output
            ids = [step(ids, kept)]
        for x in kept:
            holders[x].add(ids[0])
        if not kept:
            roots.append(ids[0])
        if len(group) > 1:
            break
    return _Plan(width, _intern(tuple(steps)), _intern(tuple(roots)))


def _eliminate(plan: _Plan, site: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Sum the product of the (n, C, q) site and (m, C, q, q) pair tables
    over all spin states, per column: the (C,) column sums."""
    tables = [*site, *pair]
    for ids, subs, out in plan.steps:
        args = []
        for i, sub in zip(ids, subs):
            args += (tables[i], sub)
        tables.append(np.einsum(*args, out))
    total = np.ones(site.shape[1], dtype=site.dtype)
    for i in plan.roots:
        total = total * tables[i]
    return total


def _model_plan(model: PottsModel) -> _Plan:
    """The elimination plan of the model's graph."""
    return _elimination_plan(model.n_vertices, model.index_pairs, model.q)


def _model_width(model: PottsModel) -> int:
    """The elimination width of the model's graph, its plan not compiled."""
    return _elimination_order(model.n_vertices, model.index_pairs)[1]


def _column_budget(model: PottsModel, cap: int) -> int:
    """The most columns, Z's included, that one spin_means call on this
    model may ask for under the cap: its table is q^(w+1) entries a column."""
    return cap // model.q ** (_model_width(model) + 1)


def spin_means(
    model: PottsModel,
    columns: Sequence[tuple[Sequence[tuple[SpinFunction, Iterable[str]]], object]],
    cap: int = DEFAULT_STATE_CAP,
) -> tuple[float, list[complex]]:
    """log Z and the Gibbs mean of every column, from one elimination pass.

    A column is (factors, coordinate): the per-state value
    prod_i prod_{v in R_i} f_i(sigma_v), times the Kronecker delta of the
    coordinate (an edge (u, v) or a vertex name) unless it is None. An
    empty factor list is the constant 1.

    Column 0 of the tables is Z itself. A column's factors multiply its
    slice of the site tables; a field coordinate zeroes sigma != 0 in its
    column of the vertex's site table, and a coupling coordinate keeps
    only the diagonal of its column of the edge's pair table. The cap is
    checked on the width of the elimination order before its einsum steps
    are compiled, so a graph far past the cap is refused at once. A mean
    that is not finite, as where a product of factor values overflows
    float64, raises ModelError.
    """
    # (id(f), region): (f, its vertex indices), each pair checked once per call;
    # keyed on identity, as SpinFunction equality merges a -0.0 table with a 0.0 one
    indexed: dict = {}
    prepared = []
    for fs, c in columns:
        keys = []
        for f, region in fs:
            key = (id(f), tuple(region))
            if key not in indexed:
                indexed[key] = check_factors(model, [(f, key[1])])[0]
            keys.append(key)
        prepared.append((keys, None if c is None else _coordinate_position(model, c)))
    q, n_cols, width = model.q, 1 + len(prepared), _model_width(model)
    _check_cap(q ** (width + 1) * n_cols, cap,
               "a %d^%d x %d table at elimination width %d", q, width + 1, n_cols, width)
    complex_valued = any(x.imag for f, _ in indexed.values() for x in f.values)
    factors = {
        key: (f.as_array() if complex_valued else f.as_array().real, idx)
        for key, (f, idx) in indexed.items()
    }
    site, pair = _tables(model, n_cols, complex if complex_valued else float)
    for c, (keys, position) in enumerate(prepared, 1):
        for key in keys:
            values, idx = factors[key]
            for i in idx:
                site[i, c] *= values
        if position is not None:
            field, k = position
            if field:
                site[k, c, 1:] = 0.0
            else:
                pair[k, c] = np.eye(q)
    sums = _eliminate(_model_plan(model), site, pair)
    z = float(sums[0].real)
    # the tables' shift: sum(J) + sum(h), the log-weight of sigma == 0
    log_z = fsum(model.J) + fsum(model.h) + math.log(z)
    means = [complex(s / z) for s in sums[1:]]
    if not all(map(cmath.isfinite, means)):
        c = next(c for c, mean in enumerate(means) if not cmath.isfinite(mean))
        raise ModelError(f"the mean of column {c} is {means[c]}: its product of "
                         "factor values overflows float64")
    return log_z, means


def log_partition_function(model: PottsModel, cap: int = DEFAULT_STATE_CAP) -> float:
    """log Z by variable elimination (stable for large couplings/fields)."""
    return spin_means(model, (), cap)[0]


def potts_distribution(model: PottsModel, cap: int = DEFAULT_STATE_CAP) -> np.ndarray:
    """pi over all spin states, indexed lexicographically (sigma_0 most
    significant digit).

    The model's shifted_tables multiplied out on a q^|V| array by einsum,
    which sums no index: every state's weight is the product of its site
    tables in vertex order, then its pair tables in edge order. A model
    with more tables than one einsum takes is folded in runs of them, the
    law so far the first operand of the next run, which keeps that order.
    """
    n, q = model.n_vertices, model.q
    _check_cap(model.n_states, cap, "the spin law over %d^%d states", q, n)
    site, pair = model.shifted_tables
    args = []  # einsum's operands, each table followed by its axes
    for i, table in enumerate(site[:, 0]):
        args += (table, (i,))
    for table, axes in zip(pair[:, 0], model.index_pairs):
        args += (table, axes)
    args = args or [np.ones(()), ()]  # a model without vertices: the empty product
    while len(args) > 2 * _EINSUM_OPERANDS:
        run, rest = args[: 2 * _EINSUM_OPERANDS], args[2 * _EINSUM_OPERANDS :]
        axes = tuple(sorted({x for sub in run[1::2] for x in sub}))
        args = [np.einsum(*run, axes), axes, *rest]
    law = np.einsum(*args, tuple(range(n)))
    law = law.ravel()
    return law / law.sum()


def potts_expectation(
    model: PottsModel,
    factors: Sequence[tuple[SpinFunction, Iterable[str]]],
    cap: int = DEFAULT_STATE_CAP,
) -> complex:
    """Mean of prod_i prod_{v in R_i} f_i(sigma_v) under the Potts measure.

    An empty factor list gives 1. The weight shift cancels in the ratio,
    so arbitrarily large J/h are safe here.
    """
    return spin_means(model, [(factors, None)], cap)[1][0]
