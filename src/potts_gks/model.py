"""Ferromagnetic q-state Potts model on a finite graph, with exact enumeration.

The probability of a spin configuration sigma is proportional to

    exp( sum_e J_e [sigma_x == sigma_y]  +  sum_v h_v [sigma_v == 0] )

with non-negative couplings J and fields h. Expectations of products
prod_{v in R} f(sigma_v) are computed by exhaustive enumeration of the
q^|V| spin states, in lexicographic order, with pairwise/compensated
accumulation so results are reproducible across runs.

Overflow policy: weights are exponentiated in one place only
(_shifted_weight_blocks), and always after subtracting the largest
log-weight sum(J) + sum(h), attained at sigma == 0. Every shifted weight
lies in [0, 1] and the all-zero state contributes 1, so the shifted
partition sum is finite and at least 1 for any finite J and h. One
reducer (spin_means) returns log Z and every requested mean from a single
walk of the states; the other exact routines are thin callers of it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from math import fsum
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_STATE_CAP = 1 << 24
CAP_ENV_VAR = "POTTS_GKS_CAP"

_STATE_CHUNK = 1 << 16


class ModelError(ValueError):
    """Invalid model, region, or function input."""


class NegativeCoupling(ModelError):
    pass


class NegativeField(ModelError):
    pass


class BadQ(ModelError):
    pass


class BadEdge(ModelError):
    pass


class BadRegion(ModelError):
    """Region mentions an unknown vertex or repeats one (multisets rejected)."""


class EnumerationTooLarge(ModelError):
    """State space exceeds the enumeration cap; use the MC sampler instead."""


def default_cap() -> int:
    """Enumeration cap: POTTS_GKS_CAP env var if set, else 2**24 states."""
    raw = os.environ.get(CAP_ENV_VAR)
    return int(raw) if raw else DEFAULT_STATE_CAP


@dataclass(frozen=True)
class SpinFunction:
    """A function f: {0,...,q-1} -> C, stored as its value table."""

    values: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if len(self.values) < 2:
            raise BadQ(f"spin function needs q >= 2 values, got {len(self.values)}")

    @property
    def q(self) -> int:
        return len(self.values)

    def __getitem__(self, x: int) -> complex:
        return self.values[x]

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
        validate_model(self)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_states(self) -> int:
        return self.q ** len(self.vertices)

    def vertex_index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise BadRegion(f"unknown vertex {v!r}") from None

    def edge_position(self, u: str, v: str) -> int:
        """Index of the undirected edge <u,v> in the edge list."""
        for k, (a, b) in enumerate(self.edges):
            if {a, b} == {u, v}:
                return k
        raise BadEdge(f"no edge <{u},{v}> in model")

    def with_coupling(self, position: int, J: float) -> "PottsModel":
        new_J = list(self.J)
        new_J[position] = J
        return PottsModel(self.vertices, self.edges, tuple(new_J), self.h, self.q)

    def with_field(self, index: int, h: float) -> "PottsModel":
        new_h = list(self.h)
        new_h[index] = h
        return PottsModel(self.vertices, self.edges, self.J, tuple(new_h), self.q)

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
            q = int(data["q"])
            vertices = tuple(str(v) for v in data["vertices"])
            edges = tuple((str(e["u"]), str(e["v"])) for e in data.get("edges", []))
            J = tuple(float(e.get("J", 0.0)) for e in data.get("edges", []))
            fields = data.get("fields", {}) or {}
        except (KeyError, TypeError) as exc:
            raise ModelError(f"malformed model JSON: {exc}") from exc
        for v in fields:
            if str(v) not in vertices:
                raise BadRegion(f"field given for unknown vertex {v!r}")
        h = tuple(float(fields.get(v, 0.0)) for v in vertices)
        return cls(vertices, edges, J, h, q)

    @classmethod
    def from_json_file(cls, path: str) -> "PottsModel":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def validate_model(model: PottsModel) -> None:
    """Raise the appropriate ModelError unless all invariants hold."""
    if model.q < 2:
        raise BadQ(f"q must be >= 2, got {model.q}")
    if len(model.J) != len(model.edges):
        raise BadEdge("J must align with the edge list")
    if len(model.h) != len(model.vertices):
        raise NegativeField("h must align with the vertex list")
    if len(set(model.vertices)) != len(model.vertices):
        raise BadEdge("duplicate vertex id")
    vset = set(model.vertices)
    seen = set()
    for u, v in model.edges:
        if u == v:
            raise BadEdge(f"self-loop <{u},{v}>")
        if u not in vset or v not in vset:
            raise BadEdge(f"edge <{u},{v}> uses unknown vertex")
        key = frozenset((u, v))
        if key in seen:
            raise BadEdge(f"duplicate edge <{u},{v}>")
        seen.add(key)
    for J in model.J:
        if not (J >= 0.0) or math.isinf(J):
            raise NegativeCoupling(f"couplings must be finite and >= 0, got {J}")
    for h in model.h:
        if not (h >= 0.0) or math.isinf(h):
            raise NegativeField(f"fields must be finite and >= 0, got {h}")


def validate_spin_config(model: PottsModel, sigma: Sequence[int]) -> np.ndarray:
    arr = np.asarray(sigma, dtype=np.int64)
    if arr.shape != (model.n_vertices,):
        raise ModelError("spin configuration must have one entry per vertex")
    if arr.size and (arr.min() < 0 or arr.max() >= model.q):
        raise ModelError(f"spins must lie in [0, {model.q - 1}]")
    return arr


def region_indices(model: PottsModel, region: Iterable[str]) -> tuple[int, ...]:
    """Map vertex names to indices, rejecting repeats (regions are sets)."""
    names = list(region)
    if len(set(names)) != len(names):
        raise BadRegion(f"region {names!r} repeats a vertex")
    return tuple(model.vertex_index(v) for v in names)


def check_factors(
    model: PottsModel, factors: Sequence[tuple[SpinFunction, Iterable[str]]]
) -> list[tuple[SpinFunction, tuple[int, ...]]]:
    out = []
    for f, region in factors:
        if f.q != model.q:
            raise BadQ(f"spin function has q={f.q}, model has q={model.q}")
        out.append((f, region_indices(model, region)))
    return out


# ---------------------------------------------------------------------------
# enumeration machinery
# ---------------------------------------------------------------------------


def check_state_cap(model: PottsModel, cap: int | None = None) -> int:
    cap = default_cap() if cap is None else cap
    if model.n_states > cap:
        raise EnumerationTooLarge(
            f"{model.q}^{model.n_vertices} = {model.n_states} states exceeds cap {cap}"
        )
    return cap


def iter_state_blocks(model: PottsModel, cap: int | None = None) -> Iterator[np.ndarray]:
    """Yield (m, |V|) int8 blocks of spin states in lexicographic order."""
    check_state_cap(model, cap)
    n, q = model.n_vertices, model.q
    total = model.n_states
    if n == 0:
        yield np.zeros((1, 0), dtype=np.int8)
        return
    place = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, _STATE_CHUNK):
        idx = np.arange(start, min(start + _STATE_CHUNK, total), dtype=np.int64)
        yield ((idx[:, None] // place[None, :]) % q).astype(np.int8)


def state_log_weights(model: PottsModel, states: np.ndarray) -> np.ndarray:
    """log of the unnormalized Gibbs weight for each row of `states`."""
    lw = np.zeros(states.shape[0])
    index = {v: i for i, v in enumerate(model.vertices)}
    for (u, v), J in zip(model.edges, model.J):
        if J != 0.0:
            lw += J * (states[:, index[u]] == states[:, index[v]])
    for i, h in enumerate(model.h):
        if h != 0.0:
            lw += h * (states[:, i] == 0)
    return lw


def factor_values(
    factors: list[tuple[SpinFunction, tuple[int, ...]]], states: np.ndarray
) -> np.ndarray:
    """prod_i prod_{v in R_i} f_i(sigma_v) for each row of `states`."""
    vals = np.ones(states.shape[0], dtype=np.complex128)
    for f, idx in factors:
        table = f.as_array()
        for i in idx:
            vals *= table[states[:, i]]
    return vals


def potts_weight(model: PottsModel, sigma: Sequence[int]) -> float:
    """Unnormalized Gibbs weight exp{sum J_e delta_e + sum h_v delta_v}."""
    arr = validate_spin_config(model, sigma)
    index = {v: i for i, v in enumerate(model.vertices)}
    lw = fsum(
        J for (u, v), J in zip(model.edges, model.J) if arr[index[u]] == arr[index[v]]
    ) + fsum(h for i, h in enumerate(model.h) if arr[i] == 0)
    try:
        return math.exp(lw)
    except OverflowError:
        return math.inf


def _max_log_weight(model: PottsModel) -> float:
    """sum(J) + sum(h), the log-weight of sigma == 0 and the largest one."""
    return fsum(model.J) + fsum(model.h)


def _shifted_weight_blocks(
    model: PottsModel, cap: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(states, exp(log-weight - sum J - sum h)) per block of one pass.

    The only place spin-state weights are exponentiated; see the module
    docstring for why the shift makes every weight lie in [0, 1].
    """
    shift = _max_log_weight(model)
    for block in iter_state_blocks(model, cap):
        yield block, np.exp(state_log_weights(model, block) - shift)


def _coordinate_sites(model: PottsModel, coordinate) -> tuple[int, int | None]:
    """Sites of a coordinate's Kronecker delta, the derivative of the
    log-weight in that coordinate: (u, v) for the coupling of the edge
    <u,v>, sigma_u == sigma_v; (v, None) for the field at the vertex v,
    sigma_v == 0."""
    if isinstance(coordinate, str):
        return model.vertex_index(coordinate), None
    u, v = coordinate
    model.edge_position(u, v)
    return model.vertex_index(u), model.vertex_index(v)


def spin_means(
    model: PottsModel,
    columns: Sequence[tuple[Sequence[tuple[SpinFunction, Iterable[str]]], object]],
    cap: int | None = None,
) -> tuple[float, list[complex]]:
    """log Z and the Gibbs mean of every column, from one pass over the states.

    A column is (factors, coordinate): the per-state value
    prod_i prod_{v in R_i} f_i(sigma_v), times the Kronecker delta of the
    coordinate (an edge (u, v) or a vertex name) unless it is None. An
    empty factor list is the constant 1.
    """
    prepared = [
        (check_factors(model, fs), None if c is None else _coordinate_sites(model, c))
        for fs, c in columns
    ]
    den, parts = [], [[] for _ in prepared]
    for block, w in _shifted_weight_blocks(model, cap):
        den.append(float(np.sum(w)))
        for (factors, sites), out in zip(prepared, parts):
            wc = w
            if sites is not None:
                i, j = sites
                wc = w * (block[:, i] == (0 if j is None else block[:, j]))
            out.append(np.sum(wc * factor_values(factors, block)))
    z = fsum(den)
    means = [
        complex(fsum(p.real for p in out) / z, fsum(p.imag for p in out) / z)
        for out in parts
    ]
    return _max_log_weight(model) + math.log(z), means


def log_partition_function(model: PottsModel, cap: int | None = None) -> float:
    """log Z by exhaustive enumeration (stable for large couplings/fields)."""
    return spin_means(model, (), cap)[0]


def partition_function(model: PottsModel, cap: int | None = None) -> float:
    """Z = sum over all spin states of potts_weight (may overflow to inf)."""
    try:
        return math.exp(log_partition_function(model, cap))
    except OverflowError:
        return math.inf


def potts_distribution(model: PottsModel, cap: int | None = None) -> np.ndarray:
    """pi over all spin states, indexed lexicographically (sigma_0 most
    significant digit)."""
    blocks = [w for _, w in _shifted_weight_blocks(model, cap)]
    return np.concatenate(blocks) / fsum(float(np.sum(b)) for b in blocks)


def potts_expectation(
    model: PottsModel,
    factors: Sequence[tuple[SpinFunction, Iterable[str]]],
    cap: int | None = None,
) -> complex:
    """Mean of prod_i prod_{v in R_i} f_i(sigma_v) under the Potts measure.

    An empty factor list gives 1. The weight shift cancels in the ratio,
    so arbitrarily large J/h are safe here.
    """
    return spin_means(model, [(factors, None)], cap)[1][0]
