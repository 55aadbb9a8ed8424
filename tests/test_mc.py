"""Cluster Monte Carlo: invariance, error bars, determinism."""

import math
import re
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import stats

from potts_gks import (
    ModelError,
    PottsModel,
    SpinFunction,
    estimate_pooled,
    make_family,
    potts_distribution,
    potts_expectation,
)
from potts_gks.instances import torus_grid
from potts_gks.mc import _run_chain, _single_chain
from potts_gks.random_cluster import _ClusterFactors, augment, conditional_expectation
from strategies import certified_functions, model_function_region, small_models
from strategies import regions as regions_of

LN2 = math.log(2)
LN3 = math.log(3)


def edge_model(q=2, J=LN3, h=(0.0, 0.0)):
    return PottsModel(("u", "v"), (("u", "v"),), (J,), h, q)


# ---------------------------------------------------------------------------
# single sweeps: _run_chain on one-row blocks
# ---------------------------------------------------------------------------


def _sweep(aug, table, sp, rng):
    """One raw sweep of _run_chain, advancing sp (the ghost's 0 last) in place."""
    _run_chain(aug, table, False, rng.random((1, aug.n_bonds)),
               rng.random((1, aug.n_vertices)), sp)


def test_sweep_free_case_is_iid_uniform():
    # no bond can open, so every vertex is its own cluster and gets an
    # independent uniform colour
    m = PottsModel(("u", "v"), (), (), (0.0, 0.0), 2)
    aug, table = augment(m), _ClusterFactors(m, [])
    rng = np.random.default_rng(0)
    sp = [0, 0, 0]
    counts = np.zeros(4, dtype=int)
    for _ in range(4000):
        _sweep(aug, table, sp, rng)
        counts[2 * sp[0] + sp[1]] += 1
    assert stats.chisquare(counts).pvalue > 0.01


def test_sweep_strong_field_pins_to_zero():
    # every ghost bond opens, and the ghost's cluster is coloured 0
    m = PottsModel(("u", "v", "w"), (("u", "v"),), (0.5,), (30.0,) * 3, 4)
    aug, table = augment(m), _ClusterFactors(m, [])
    rng = np.random.default_rng(1)
    for _ in range(20):
        sp = [0, 0, 0, 0]
        _sweep(aug, table, sp, rng)
        assert sp == [0, 0, 0, 0]


def test_sweep_frozen_coupling_goes_monochromatic():
    m = PottsModel(
        ("a", "b", "c"), (("a", "b"), ("b", "c")), (30.0, 30.0), (0.0,) * 3, 5
    )
    aug, table = augment(m), _ClusterFactors(m, [])
    rng = np.random.default_rng(2)
    colours = set()
    for _ in range(20):
        sp = [0, 0, 0, 0]
        _sweep(aug, table, sp, rng)
        assert len(set(sp[:3])) == 1 and sp[3] == 0
        colours.add(sp[0])
    assert len(colours) > 1  # the one cluster takes a uniform colour


def test_sweep_leaves_potts_measure_invariant():
    # start from pi exactly, apply one sweep, chi-square the output law
    m = PottsModel(("u", "v"), (("u", "v"),), (0.7,), (0.3, 0.0), 2)
    aug, table = augment(m), _ClusterFactors(m, [])
    pi = potts_distribution(m)
    rng = np.random.default_rng(123)
    n_draws = 20_000
    starts = rng.choice(len(pi), size=n_draws, p=pi)
    counts = np.zeros(len(pi), dtype=int)
    for flat in starts:
        sp = [int(flat) // 2, int(flat) % 2, 0]
        _sweep(aug, table, sp, rng)
        counts[2 * sp[0] + sp[1]] += 1
    p = stats.chisquare(counts, pi * n_draws).pvalue
    assert p > 0.01, (counts, pi * n_draws)


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------


def test_estimate_single_vertex_field():
    # exact mean 1/2 from the 3-state enumeration
    m = PottsModel(("v",), (), (), (LN2,), 3)
    f = make_family("C", 3, (1.0, 0.0, 0.0))
    est = estimate_pooled(m, [(f, ("v",))], sweeps=100_000, seed=10)
    assert abs(est.mean - 0.5) <= 4 * est.std_error


def test_estimate_staircase_pair():
    f = make_family("A", 2)
    est = estimate_pooled(
        edge_model(), [(f, ("u",)), (f, ("v",))], sweeps=100_000, seed=11
    )
    assert abs(est.mean - 0.125) <= 4 * est.std_error


def test_estimate_constant_function_exact():
    est = estimate_pooled(edge_model(), [(SpinFunction((1.0, 1.0)), ("u",))],
                          sweeps=2000, seed=3)
    assert est.mean == 1.0 + 0j
    assert est.std_error == 0.0
    assert est.effective_samples == float(2000 - 200)


@pytest.mark.parametrize("rao", [False, True], ids=["raw", "rb"])
def test_estimate_without_factors_is_exactly_one(rao):
    est = estimate_pooled(torus_grid(3, 3, q=3, J=0.5, h=0.2), [], sweeps=500, seed=1,
                          rao_blackwell=rao)
    assert est.mean == 1.0 + 0j
    assert est.std_error == 0.0


def test_estimate_rejects_bad_window():
    for burn_in in (100, -1, -3):
        message = f"burn_in={burn_in} not in [0, sweeps) for sweeps=100"
        with pytest.raises(ModelError, match=re.escape(message)):
            estimate_pooled(edge_model(), [], sweeps=100, burn_in=burn_in, seed=0)
    for chains in (0, -2):
        with pytest.raises(ModelError, match=f"need at least one chain, got {chains}"):
            estimate_pooled(edge_model(), [], sweeps=100, seed=0, chains=chains)


@pytest.mark.parametrize(
    "counts, message",
    [
        ({"sweeps": 2.5}, "sweeps must be an integer, got 2.5"),
        ({"sweeps": "100"}, "sweeps must be an integer, got '100'"),
        ({"chains": 2.5}, "chains must be an integer, got 2.5"),
        ({"burn_in": 1.5}, "burn_in must be an integer, got 1.5"),
        ({"sweeps": -5}, "sweeps must be at least 1, got -5"),
        ({"sweeps": 0}, "sweeps must be at least 1, got 0"),
    ],
    ids=["sweeps-2.5", "sweeps-str", "chains-2.5", "burn-in-1.5", "sweeps--5", "sweeps-0"],
)
def test_estimate_refuses_a_count_that_is_not_a_whole_positive_number(counts, message):
    # the non-integers used to raise a bare TypeError, and sweeps=-5 blamed
    # the default burn_in of -1
    kwargs = {"sweeps": 100, "seed": 0, **counts}
    with pytest.raises(ModelError, match=rf"^{re.escape(message)}$"):
        estimate_pooled(edge_model(), [], **kwargs)


@pytest.mark.parametrize("chains", [1, 3])
@pytest.mark.parametrize("seed", [-1, None, 1.5])
def test_estimate_rejects_a_seed_below_zero_or_not_an_integer(seed, chains):
    # refused by name, not by numpy's SeedSequence or default_rng, and None
    # no longer seeds from the OS
    with pytest.raises(ModelError, match=rf"seed must be an integer of at least 0, got {seed}$"):
        estimate_pooled(edge_model(), [], sweeps=100, seed=seed, chains=chains)


@pytest.mark.parametrize("chains", [1, 3])
@pytest.mark.parametrize("rao", [False, True], ids=["raw", "rb"])
def test_an_overflowing_estimate_raises_model_error_without_a_warning(rao, chains):
    # f^R overflows float64 on a and b: a typed error from raw and RB chains,
    # one or merged, and no numpy warning on the way
    model = PottsModel(("a", "b", "c"), (("a", "b"), ("b", "c")), (0.5, 0.5),
                       (0.0, 0.0, 0.0), 3)
    big = SpinFunction((1e200, 1e199, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match=r"^the estimate .* is not finite: a "
                           "product of factor values, or its square, overflows"):
            estimate_pooled(model, [(big, ("a", "b"))], sweeps=200, seed=1,
                            chains=chains, rao_blackwell=rao)


def test_estimate_deterministic():
    f = make_family("A", 3)
    m = PottsModel(("u", "v"), (("u", "v"),), (0.8,), (0.2, 0.0), 3)
    a = estimate_pooled(m, [(f, ("u", "v"))], sweeps=5000, seed=42)
    b = estimate_pooled(m, [(f, ("u", "v"))], sweeps=5000, seed=42)
    assert a == b  # bit for bit, including the error bar


def test_estimate_effective_samples_bounded():
    f = make_family("A", 2)
    est = estimate_pooled(edge_model(), [(f, ("u",))], sweeps=4000, seed=5)
    assert 0 < est.effective_samples <= 4000 - 400
    # one kept sample: one batch, no spread, one effective sample
    est = estimate_pooled(edge_model(), [(f, ("u",))], sweeps=1, seed=5)
    assert (est.std_error, est.effective_samples, est.burn_in) == (0.0, 1.0, 0)


@pytest.mark.parametrize(
    "model,factors",
    [
        (
            PottsModel(("v",), (), (), (LN2,), 3),
            lambda: [(make_family("C", 3, (1.0, 0.0, 0.0)), ("v",))],
        ),
        (
            edge_model(),
            lambda: [(make_family("A", 2), ("u",)), (make_family("A", 2), ("v",))],
        ),
    ],
)
def test_estimate_covers_exact_value(model, factors):
    factors = factors()
    exact = potts_expectation(model, factors)
    hits = 0
    for seed in range(100):
        est = estimate_pooled(model, factors, sweeps=3000, seed=seed)
        if abs(est.mean - exact) <= 4 * est.std_error:
            hits += 1
    assert hits >= 95, hits


# ---------------------------------------------------------------------------
# variance reduction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "model,q",
    [
        (PottsModel(("a", "b", "c"), (("a", "b"), ("b", "c")), (0.6, 0.3),
                    (0.2, 0.0, 0.1), 3), 3),
        (PottsModel(("a", "b"), (("a", "b"),), (1.2,), (0.0, 0.0), 4), 4),
        (PottsModel(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")),
                    (0.4, 0.4, 0.4), (0.5, 0.5, 0.5), 2), 2),
        (PottsModel(("a", "b", "c", "d"), (("a", "b"), ("c", "d")),
                    (0.8, 0.2), (0.0, 0.3, 0.0, 0.1), 5), 5),
    ],
)
def test_rao_blackwell_agrees_and_reduces_variance(model, q):
    f = make_family("A", q)
    factors = [(f, model.vertices[:2])]
    raw = estimate_pooled(model, factors, sweeps=20_000, seed=7)
    rb = estimate_pooled(model, factors, sweeps=20_000, seed=7, rao_blackwell=True)
    joint = math.hypot(raw.std_error, rb.std_error)
    assert abs(raw.mean - rb.mean) <= 4 * joint
    # per-sample variance cannot grow under conditioning
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    aug, table = augment(model), _ClusterFactors(model, factors)
    s_raw = _single_chain(aug, table, 20_000, rng_a, rao_blackwell=False)
    s_rb = _single_chain(aug, table, 20_000, rng_b, rao_blackwell=True)
    assert np.var(s_rb[2000:]) <= np.var(s_raw[2000:]) + 1e-12


def test_rao_blackwell_tracks_exact_value():
    m = edge_model(q=3, J=0.9, h=(0.4, 0.1))
    f = make_family("B", 3)
    factors = [(f, ("u", "v"))]
    exact = potts_expectation(m, factors)
    est = estimate_pooled(m, factors, sweeps=50_000, seed=21, rao_blackwell=True)
    assert abs(est.mean - exact) <= 4 * est.std_error


# ---------------------------------------------------------------------------
# pooled chains
# ---------------------------------------------------------------------------


# (model, ((family, region), ...), sweeps, seed, rao_blackwell) ->
# (mean, std_error, effective_samples), frozen from the array kernel run as
# plain Python. The B cases carry complex products, the 16884-sweep case
# crosses a block boundary, "pair" has two factors and field-free clusters,
# and its C case tells numpy's complex division from Python's.
DIGEST_MODELS = {
    "edge": PottsModel(("u", "v"), (("u", "v"),), (0.8,), (0.3, 0.0), 3),
    "torus": torus_grid(3, 3, q=3, J=0.5, h=0.2),
    "pair": PottsModel(("a", "b", "c", "d"), (("a", "b"), ("c", "d")),
                       (0.8, 0.2), (0.0, 0.3, 0.0, 0.1), 5),
}
FROZEN_DIGEST = {
    ('edge', (('A', ('u', 'v')),), 400, 0, False):
        ((0.16944444444444445+0j), 0.051903961098224, 193.00335370778035),
    ('edge', (('A', ('u', 'v')),), 400, 0, True):
        ((0.17129629629629628+0j), 0.019013428530736353, 248.21964865440458),
    ('edge', (('A', ('u', 'v')),), 400, 13, False):
        ((0.20833333333333334+0j), 0.0315242784351045, 360.0),
    ('edge', (('A', ('u', 'v')),), 400, 13, True):
        ((0.18425925925925926+0j), 0.01699452267313397, 331.1308738614953),
    ('edge', (('A', ('u', 'v')),), 400, 29, False):
        ((0.2138888888888889+0j), 0.04710543680201406, 234.1604071373314),
    ('edge', (('A', ('u', 'v')),), 400, 29, True):
        ((0.19629629629629627+0j), 0.02765843278628508, 133.17082665398866),
    ('torus', (('A', ('s00', 's01')),), 2000, 0, False):
        ((0.18555555555555556+0j), 0.023111034117044255, 1009.5149569919535),
    ('torus', (('A', ('s00', 's01')),), 2000, 0, True):
        ((0.19+0j), 0.00969536683332011, 1275.4506046257775),
    ('torus', (('A', ('s00', 's01')),), 2000, 1, False):
        ((0.19277777777777777+0j), 0.025976347716300422, 787.6236578780538),
    ('torus', (('A', ('s00', 's01')),), 2000, 1, True):
        ((0.20796296296296296+0j), 0.013670293174607981, 676.3249668789621),
    ('torus', (('A', ('s00', 's01')),), 2000, 2, False):
        ((0.22555555555555556+0j), 0.02457216557847489, 900.7603577704442),
    ('torus', (('A', ('s00', 's01')),), 2000, 2, True):
        ((0.21759259259259256+0j), 0.014436569156348986, 646.0290727466371),
    ('torus', (('B', ('s00', 's11')),), 2000, 3, False):
        ((0.06916666666666667+0.023575135991909753j), 0.025015938796646247, 1590.312470362752),
    ('torus', (('B', ('s00', 's11')),), 2000, 3, True):
        ((0.06722222222222222+4.313422047525145e-17j), 0.011810510925197125, 449.774704213944),
    ('torus', (('A', ('s00', 's01')),), 16884, 4, False):
        ((0.21907080810739668+0j), 0.008833119315723635, 6755.975594561718),
    ('torus', (('A', ('s00', 's01')),), 16884, 4, True):
        ((0.21319206808809332+0j), 0.004059171895900336, 7759.728302096246),
    ('pair', (('B', ('a',)), ('A', ('c', 'd'))), 1000, 5, False):
        ((-0.026542826466664806-0.013678593498556685j), 0.07071403148364176, 789.0681019278159),
    ('pair', (('B', ('a',)), ('A', ('c', 'd'))), 1000, 5, True):
        ((-4.046146134189459e-18+2.0230730670947294e-18j), 7.93016446160826e-19, 822.0614509949334),
    ('torus', (('C', ('s00', 's01', 's11')),), 2000, 6, False):
        ((0.40950617283950624+0j), 0.007559701495486898, 1719.6704948730755),
    ('torus', (('C', ('s00', 's01', 's11')),), 2000, 6, True):
        ((0.4123799725651577+0j), 0.005027366659460949, 1111.688866716736),
    ('pair', (('C', ('a', 'b')), ('B', ('c',))), 1000, 7, False):
        ((-0.01138052056791576+0.004525026408291783j), 0.01766799658162327, 696.3279522674987),
    ('pair', (('C', ('a', 'b')), ('B', ('c',))), 1000, 7, True):
        ((-1.7424086864694912e-17+8.712043432347456e-18j), 2.0727117340354597e-19, 408.0033500243631),
}


def _digest_family(kind, q):
    return make_family(kind, q, [1 - x / q for x in range(q)] if kind == "C" else None)


def test_kernel_reproduces_frozen_digest():
    # same seeds, same pre-drawn randomness, same arithmetic as the array
    # kernel the digest was frozen from
    for key, want in FROZEN_DIGEST.items():
        name, spec, sweeps, seed, rao = key
        model = DIGEST_MODELS[name]
        factors = [(_digest_family(kind, model.q), region) for kind, region in spec]
        est = estimate_pooled(model, factors, sweeps=sweeps, seed=seed, rao_blackwell=rao)
        assert (est.mean, est.std_error, est.effective_samples) == want, key


def _uf_find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _run_chain_arrays(
    edge_u,
    edge_v,
    p_edge,
    p_ghost,
    members,
    ftab,
    powtab,
    rao,
    bond_u,
    colour_u,
    spins,
    samples,
):
    """Advance the chain one sweep per row of bond_u, recording one sample
    per sweep (raw functional of the new spins, or its conditional
    expectation given the bonds when rao is set).

    The array kernel FROZEN_DIGEST was taken from, run as plain Python: the
    reference that mc._run_chain reproduces."""
    sweeps = bond_u.shape[0]
    E = edge_u.shape[0]
    n = spins.shape[0]
    L = members.shape[0]
    q = ftab.shape[1]
    parent = np.empty(n + 1, dtype=np.int64)
    colour = np.empty(n + 1, dtype=np.int64)
    root_of = np.empty(n, dtype=np.int64)
    mcount = np.empty((n + 1, max(L, 1)), dtype=np.int64)
    for s in range(sweeps):
        for x in range(n + 1):
            parent[x] = x
        for k in range(E):
            a = edge_u[k]
            b = edge_v[k]
            if spins[a] == spins[b] and bond_u[s, k] < p_edge[k]:
                ra = _uf_find(parent, a)
                rb = _uf_find(parent, b)
                if ra != rb:
                    if ra < rb:
                        parent[rb] = ra
                    else:
                        parent[ra] = rb
        for vtx in range(n):
            if spins[vtx] == 0 and bond_u[s, E + vtx] < p_ghost[vtx]:
                ra = _uf_find(parent, vtx)
                rb = _uf_find(parent, n)
                if ra != rb:
                    if ra < rb:
                        parent[rb] = ra
                    else:
                        parent[ra] = rb
        groot = _uf_find(parent, n)
        for x in range(n + 1):
            colour[x] = -1
        colour[groot] = 0
        cidx = 0
        for vtx in range(n):
            r = _uf_find(parent, vtx)
            root_of[vtx] = r
            if colour[r] < 0:
                c = int(colour_u[s, cidx] * q)
                if c >= q:
                    c = q - 1
                colour[r] = c
                cidx += 1
            spins[vtx] = colour[r]
        if rao:
            for x in range(n + 1):
                for i in range(L):
                    mcount[x, i] = 0
            for i in range(L):
                for vtx in range(n):
                    if members[i, vtx]:
                        mcount[root_of[vtx], i] += 1
            val = complex(1.0, 0.0)
            for i in range(L):
                val = val * powtab[i, 0, mcount[groot, i]]
            for x in range(n):
                if parent[x] == x and x != groot:
                    acc = complex(0.0, 0.0)
                    for y in range(q):
                        t = complex(1.0, 0.0)
                        for i in range(L):
                            t = t * powtab[i, y, mcount[x, i]]
                        acc = acc + t
                    val = val * (acc / q)
            samples[s] = val
        else:
            val = complex(1.0, 0.0)
            for i in range(L):
                for vtx in range(n):
                    if members[i, vtx]:
                        val = val * ftab[i, spins[vtx]]
            samples[s] = val


@settings(max_examples=25)
@given(data=st.data())
def test_list_kernel_matches_array_kernel(data):
    # the kernel against the reference array kernel on the same uniforms:
    # identical spins after every block, identical samples
    model, f, _ = data.draw(model_function_region(max_n=5, max_q=4))
    regions = [data.draw(regions_of(model)) for _ in range(data.draw(st.integers(0, 2)))]
    factors = [(f, R) for R in regions if R]
    rao = data.draw(st.booleans())
    seed = data.draw(st.integers(0, 2**32 - 1))
    aug = augment(model)
    table = _ClusterFactors(model, factors)
    prepared, powtab = table.prepared, table.powtab
    n, E = model.n_vertices, len(model.edges)
    edge_u = np.array([a for a, _ in aug.edge_index[:E]], dtype=np.int64)
    edge_v = np.array([b for _, b in aug.edge_index[:E]], dtype=np.int64)
    p = np.array(aug.p)
    members = np.zeros((len(prepared), n), dtype=np.uint8)
    ftab = np.zeros((len(prepared), model.q), dtype=np.complex128)
    for i, (g, idx) in enumerate(prepared):
        members[i, list(idx)] = 1
        ftab[i] = g.as_array()
    rng = np.random.default_rng(seed)
    spins = np.zeros(n, dtype=np.int64)
    sp = [0] * (n + 1)
    for rows in (1, 40, 7):
        bond_u = rng.random((rows, aug.n_bonds))
        colour_u = rng.random((rows, n))
        want = np.empty(rows, dtype=np.complex128)
        _run_chain_arrays(edge_u, edge_v, p[:E], p[E:], members, ftab, powtab, rao,
                          bond_u, colour_u, spins, want)
        got = np.array(_run_chain(aug, table, rao, bond_u, colour_u, sp),
                       dtype=np.complex128)
        assert sp == spins.tolist() + [0]
        assert want.tobytes() == got.tobytes()


def _assert_kernel_matches_array_kernel(model, factors, rao, seed, blocks):
    """_run_chain against _run_chain_arrays on the same uniforms, one block of
    rows at a time through one spin list: equal spins after every block, and
    samples equal byte for byte."""
    aug = augment(model)
    table = _ClusterFactors(model, factors)
    n, E = model.n_vertices, len(model.edges)
    edge_u = np.array([a for a, _ in aug.edge_index[:E]], dtype=np.int64)
    edge_v = np.array([b for _, b in aug.edge_index[:E]], dtype=np.int64)
    p = np.array(aug.p)
    members = np.zeros((len(table.prepared), n), dtype=np.uint8)
    ftab = np.zeros((len(table.prepared), model.q), dtype=np.complex128)
    for i, (g, idx) in enumerate(table.prepared):
        members[i, list(idx)] = 1
        ftab[i] = g.as_array()
    rng = np.random.default_rng(seed)
    spins = np.zeros(n, dtype=np.int64)
    sp = [0] * (n + 1)
    for rows in blocks:
        bond_u = rng.random((rows, aug.n_bonds))
        colour_u = rng.random((rows, n))
        want = np.empty(rows, dtype=np.complex128)
        _run_chain_arrays(edge_u, edge_v, p[:E], p[E:], members, ftab, table.powtab,
                          rao, bond_u, colour_u, spins, want)
        got = np.array(_run_chain(aug, table, rao, bond_u, colour_u, sp),
                       dtype=np.complex128)
        assert sp == spins.tolist() + [0], (rows, seed)
        assert want.tobytes() == got.tobytes(), (rows, seed)


# the 3x3 tori are past the Hypothesis strategy's five vertices; B on three
# diagonal vertices with A beside them makes RB samples with negative zeros,
# and a -0.0 entry of f makes ghost factors with a -0.0 part
TORUS_CASES = {
    "q3-A-pair": (torus_grid(3, 3, q=3, J=0.5, h=0.2),
                  ((make_family("A", 3), ("s00", "s01")),)),
    "q3-B-diagonal-A-s01": (torus_grid(3, 3, q=3, J=0.5, h=0.2),
                            ((make_family("B", 3), ("s00", "s11", "s22")),
                             (make_family("A", 3), ("s01",)))),
    "q5-B-diagonal": (torus_grid(3, 3, q=5, J=0.5, h=0.2),
                      ((make_family("B", 5), ("s00", "s11", "s22")),)),
    "q2-negative-zero-pair": (torus_grid(3, 3, q=2, J=0.5, h=0.2),
                              ((SpinFunction((-0.0, 1.0)), ("s00", "s01")),)),
    # with all three members in the ghost's cluster its factor is (0.0, -0.0),
    # which a factor of 1+0j turns into (0.0, 0.0); the literal -1j is
    # (-0.0, -1.0), and the ghost factor it gives is one that 1+0j keeps
    "q2-zero-ghost-factor": (torus_grid(3, 3, q=2, J=0.5, h=0.2),
                             ((SpinFunction((0j, 1.0)), ("s00",)),
                              (SpinFunction((complex(0.0, -1.0), 1.0)), ("s01", "s11")))),
}


@pytest.mark.parametrize("rao", [False, True], ids=["raw", "rb"])
@pytest.mark.parametrize("case", list(TORUS_CASES))
def test_kernel_matches_array_kernel_on_tori(case, rao):
    model, factors = TORUS_CASES[case]
    for seed in range(4):
        _assert_kernel_matches_array_kernel(model, factors, rao, seed, (1, 40, 3000))


# the memo's key is the members' spins or roots, then the ghost's: without
# members itemgetter returns a bare value, with one member a pair
@pytest.mark.parametrize("rao", [False, True], ids=["raw", "rb"])
@pytest.mark.parametrize("spec", [(), (("A", ()),), (("B", ("s11",)),)],
                         ids=["no-factors", "empty-region", "one-member"])
def test_kernel_matches_array_kernel_on_key_edge_cases(spec, rao):
    model = torus_grid(3, 3, q=3, J=0.5, h=0.2)
    factors = [(make_family(kind, model.q), region) for kind, region in spec]
    for seed in range(2):
        _assert_kernel_matches_array_kernel(model, factors, rao, seed, (1, 40, 300))


@settings(max_examples=50)
@given(data=st.data())
def test_rao_blackwell_sample_is_conditional_expectation(data):
    # one sweep from known spins: the bonds it opens are those whose
    # endpoints agree (the ghost has spin 0) and whose uniform is below p,
    # and its Rao-Blackwellized sample is E(prod f^R | omega) for that omega
    model = data.draw(small_models())
    f = data.draw(certified_functions(model.q))
    factors = [(f, data.draw(regions_of(model))) for _ in range(data.draw(st.integers(1, 2)))]
    n = model.n_vertices
    old = data.draw(st.lists(st.integers(0, model.q - 1), min_size=n, max_size=n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    aug = augment(model)
    bond_u = rng.random((1, aug.n_bonds))
    new = old + [0]
    [sample] = _run_chain(aug, _ClusterFactors(model, factors), True,
                          bond_u, rng.random((1, n)), new)
    sp = old + [0]
    omega = [
        int(sp[a] == sp[b] and u < p)
        for (a, b), u, p in zip(aug.edge_index, bond_u[0], aug.p)
    ]
    assert abs(sample - conditional_expectation(aug, omega, factors)) <= 1e-13
    assert all(new[a] == new[b] for (a, b), w in zip(aug.edge_index, omega) if w)


def test_pooled_chains_merge_deterministically():
    f = make_family("A", 2)
    factors = [(f, ("u", "v"))]
    a = estimate_pooled(edge_model(), factors, sweeps=3000, seed=9, chains=4, jobs=1)
    b = estimate_pooled(edge_model(), factors, sweeps=3000, seed=9, chains=4, jobs=4)
    assert a == b  # merge order fixed by seed list, not by scheduling
    exact = potts_expectation(edge_model(), factors)
    assert abs(a.mean - exact) <= 5 * a.std_error


@pytest.mark.parametrize("rao", [False, True])
def test_chains_sharing_one_memo_draw_their_own_samples(rao):
    # estimate_pooled passes one sample memo through all of its chains: a
    # chain that reads keys another chain stored gets the samples it would
    # compute itself, bit for bit
    model = torus_grid(3, 3, q=3, J=0.5, h=0.2)
    factors = [(make_family("B", 3), ("s00", "s11")), (make_family("A", 3), ("s22",))]
    aug, table = augment(model), _ClusterFactors(model, factors)
    seeds = np.random.SeedSequence(3).spawn(3)
    memo = {}
    shared = [_single_chain(aug, table, 400, s, rao, memo) for s in seeds]
    alone = [_single_chain(aug, table, 400, s, rao) for s in seeds]
    assert memo
    for got, want in zip(shared, alone, strict=True):
        assert got.tobytes() == want.tobytes()


def test_pooled_estimate_on_a_torus_past_the_state_cap():
    # 2^36 states, so the exact mean is only reachable by elimination
    m = torus_grid(6, 6, 2, 0.4, 0.1)
    factors = [(make_family("C", 2, (1.0, 0.0)), ("s00", "s33"))]
    exact = potts_expectation(m, factors)
    est = estimate_pooled(m, factors, sweeps=3000, seed=0, chains=4)
    assert abs(est.mean - exact) <= 4 * est.std_error
