"""Swendsen-Wang-style cluster Monte Carlo with ghost bonds.

Alternates the two halves of the cluster-spin coupling: open each real
edge with probability p_e when its endpoints agree, open each ghost edge
with probability p_v when the vertex is at 0, then recolour (ghost's
cluster to 0, every other cluster uniformly). The joint construction
leaves the Potts measure invariant; the test suite checks that rather
than assuming it.

estimate_pooled is the one public estimator: one seeded chain by default,
or several merged in chain order. The sweep loop is one pure-Python kernel,
_run_chain, over random_cluster's augmented graph: it advances a list of
spins in place, one sweep per row of uniforms, and returns the samples; a
chain starts with every spin at 0. Its bonds and their probabilities come
from ``augment``, called once per estimate_pooled call and shared by its
chains, and its Rao-Blackwellized samples from _ClusterFactors, the factors
behind the exact conditional expectation. A cluster that no region touches
has factor exactly 1, so a Rao-Blackwellized sample depends only on the
roots of the region vertices and of the ghost: the kernel memoizes it by
those roots, as it memoizes a raw sample by the region vertices' spins. A
key whose partial products hold a -0.0 (which a factor of 1+0j can flip)
falls back to the full product over every root on every sweep, so the
samples are those of the full product bit for bit. All randomness comes
from one numpy Generator, consumed in a fixed layout, so a seed pins the
estimate bit for bit. The chains run under one np.errstate per call, so a
product of factor values that overflows float64 runs to inf or NaN without
a warning, and an estimate that is not finite raises ModelError.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import compress
from math import isfinite, sqrt
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .model import ModelError, PottsModel, SpinFunction
from .random_cluster import AugmentedGraph, _ClusterFactors, augment

_SWEEP_BLOCK = 1 << 14
_N_BATCHES = 16


@dataclass(frozen=True)
class Estimate:
    mean: complex
    std_error: float
    effective_samples: float
    sweeps: int
    burn_in: int

    def to_json_dict(self) -> dict:
        return {
            "type": "estimate",
            "mean": [self.mean.real, self.mean.imag],
            "std_error": self.std_error,
            "effective_samples": self.effective_samples,
            "sweeps": self.sweeps,
            "burn_in": self.burn_in,
        }


def _run_chain(aug, table, rao, bond_u, colour_u, sp, memo=None):
    """Advance the chain one sweep per row of bond_u and return one sample
    per sweep (raw functional of the new spins, or its conditional
    expectation given the bonds when rao is set).

    sp is the chain's spin list with the ghost's 0 last, advanced in place.
    The spin-independent half of every test is computed once per block
    with numpy: which bonds pass their uniform, and which colour each
    uniform picks. The memo dict holds the samples, a fresh one unless
    given: a raw one by the member spins, a Rao-Blackwellized one by the
    member vertices' roots and the ghost's root, read from par after the
    recolour loop. A sample depends only on its key and table, so chains
    on one table may share a memo of one kind (raw or RB). A new RB key
    gets table.touched_product, the factors of the ghost's cluster and of
    the touched clusters; where that could differ from table.product by the
    sign of a zero it is None, and such a key gets table.product over every
    root on every sweep.
    """
    n = aug.n_vertices
    q = aug.base.q
    W = aug.n_bonds
    # the ghost is vertex n with spin 0, so a ghost bond's test is a real
    # bond's: equal spins, and a uniform below its probability
    bonds = aug.edge_index
    # flattened row-major: the sweep of row r reads its bonds from
    # opened[r*W : r*W + W] and its colours from picks[r*n] on
    opened = (bond_u < np.array(aug.p)).tobytes()
    picks = memoryview(np.minimum((colour_u * q).astype(np.int64), q - 1).ravel())
    ftab = [f.as_array() for f, _ in table.prepared]
    flat = [(i, v) for i, (_, idx) in enumerate(table.prepared) for v in sorted(idx)]

    def raw_product():
        val = complex(1.0, 0.0)
        for i, v in flat:
            val = val * ftab[i][sp[v]]
        return val

    # the members' entries of sp (raw) or par (RB), then the ghost's: its
    # spin 0, or its root; without members itemgetter returns the bare entry
    key_of = itemgetter(*(v for _, v in flat), n)
    memo = {} if memo is None else memo

    verts = range(n)
    fresh = list(range(n + 1))
    out = []
    for row in range(bond_u.shape[0]):
        par = fresh[:]
        e0 = row * W
        for a, b in compress(bonds, opened[e0 : e0 + W]):
            if sp[a] == sp[b]:
                # find both roots with path halving; link the larger under the smaller
                while par[a] != a:
                    par[a] = a = par[par[a]]
                while par[b] != b:
                    par[b] = b = par[par[b]]
                if a < b:
                    par[b] = a
                elif b < a:
                    par[a] = b
        groot = n
        while par[groot] != groot:
            par[groot] = groot = par[par[groot]]
        par[n] = groot  # the RB key reads the ghost's root here
        # every root is its cluster's smallest vertex and links point downward,
        # so in increasing order each vertex's parent already points at a root,
        # and a non-root's root already holds its new colour
        cidx = row * n
        for v in verts:
            r = par[v] = par[par[v]]
            if r != v:
                sp[v] = sp[r]
            elif v == groot:
                sp[v] = 0
            else:
                sp[v] = picks[cidx]
                cidx += 1
        key = key_of(par if rao else sp)
        if key in memo:
            val = memo[key]
        else:
            val = memo[key] = table.touched_product(par, groot) if rao else raw_product()
        if val is None:
            val = table.product(par, groot, [v for v in verts if par[v] == v and v != groot])
        out.append(val)
    return out


def _single_chain(
    aug: AugmentedGraph,
    table: _ClusterFactors,
    sweeps: int,
    seed,
    rao_blackwell: bool,
    memo: dict | None = None,
) -> np.ndarray:
    """The samples of one chain on the augmented graph aug; seed is
    anything np.random.default_rng takes, and memo is _run_chain's."""
    rng = np.random.default_rng(seed)
    n = aug.n_vertices
    sp = [0] * (n + 1)  # all spins 0, and the ghost's 0 last
    samples = np.empty(sweeps, dtype=np.complex128)
    for start in range(0, sweeps, _SWEEP_BLOCK):
        stop = min(start + _SWEEP_BLOCK, sweeps)
        bond_u = rng.random((stop - start, aug.n_bonds))
        colour_u = rng.random((stop - start, n))
        samples[start:stop] = _run_chain(aug, table, bool(rao_blackwell),
                                         bond_u, colour_u, sp, memo)
    return samples


def _summarize(samples: np.ndarray, burn_in: int) -> Estimate:
    kept = samples[burn_in:]
    N = kept.shape[0]
    mean = complex(np.mean(kept))
    nb = _N_BATCHES if N >= _N_BATCHES else N
    bs = N // nb
    window = kept[: nb * bs].reshape(nb, bs)
    bmeans = window.mean(axis=1)
    if nb > 1:
        var_bm = float(np.sum(np.abs(bmeans - bmeans.mean()) ** 2)) / (nb - 1)
        se = sqrt(var_bm / nb)
    else:
        se = 0.0
    if N > 1:
        var_sample = float(np.sum(np.abs(kept - mean) ** 2)) / (N - 1)
    else:
        var_sample = 0.0
    ess = min(float(N), var_sample / se**2) if se > 0.0 else float(N)
    return Estimate(mean, se, ess, samples.shape[0], burn_in)


def estimate_pooled(
    model: PottsModel,
    factors: Sequence[tuple[SpinFunction, Iterable[str]]],
    sweeps: int,
    burn_in: int | None = None,
    seed: int = 0,
    chains: int = 1,
    jobs: int = 1,
    rao_blackwell: bool = False,
) -> Estimate:
    """Time-average of prod_i f_i(sigma)^{R_i} over seeded chains, run one
    after another and merged in chain order. One chain (the default) takes
    seed itself and is returned unmerged; several take seeds spawned from
    np.random.SeedSequence(seed).

    Standard error by batch means (16 batches per chain). rao_blackwell
    averages the conditional expectation given the bonds instead of the raw
    spin functional, which cannot increase the variance. A mean or
    standard error that overflows float64 raises ModelError.

    `jobs` is ignored and kept only for callers that still pass it: the
    pure-Python kernel holds the GIL, so threads would not overlap.
    """
    if chains < 1:
        raise ModelError(f"need at least one chain, got {chains}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ModelError(f"seed must be an integer of at least 0, got {seed!r}")
    burn_in = sweeps // 10 if burn_in is None else burn_in
    if not 0 <= burn_in < sweeps:
        raise ModelError(f"burn_in={burn_in} not in [0, sweeps) for sweeps={sweeps}")
    aug, table = augment(model), _ClusterFactors(model, factors)
    seeds = [seed] if chains == 1 else np.random.SeedSequence(seed).spawn(chains)
    memo = {}  # one sample memo for every chain: they share aug, table and mode
    with np.errstate(over="ignore", invalid="ignore"):  # the estimate is tested below
        parts = [
            _summarize(_single_chain(aug, table, sweeps, child, rao_blackwell, memo),
                       burn_in)
            for child in seeds
        ]
    if chains == 1:
        est = parts[0]
    else:
        n_each = sweeps - burn_in
        total = chains * n_each
        mean = sum(p.mean * n_each for p in parts) / total
        var_mean = sum((n_each / total) ** 2 * p.std_error**2 for p in parts)
        ess = min(float(total), sum(p.effective_samples for p in parts))
        est = Estimate(complex(mean), sqrt(var_mean), ess, chains * sweeps, burn_in)
    if not (cmath.isfinite(est.mean) and isfinite(est.std_error)):
        raise ModelError(f"the estimate {est.mean} with standard error {est.std_error} "
                         "is not finite: a product of factor values, or its square, "
                         "overflows float64")
    return est
