"""Random-cluster representation: weights, coupling, conditional means."""

import functools
import hashlib
import json
import math
import warnings
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy import stats

from potts_gks import (
    PottsModel,
    SpinFunction,
    augment,
    conditional_expectation,
    coupled_spin_marginal,
    event_Z,
    make_family,
    potts_distribution,
    potts_expectation,
    rc_expectation,
    rc_probability,
)
from potts_gks import random_cluster
from potts_gks.cli import run
from potts_gks.instances import model_from_indices, torus_grid, verification_suite
from potts_gks.mc import _run_chain
from potts_gks.model import (
    DEFAULT_STATE_CAP,
    EnumerationTooLarge,
    ModelError,
    log_partition_function,
)
from potts_gks.random_cluster import (
    _P_MAX,
    _ClusterFactors,
    _fixed_by_one,
    _group_partitions,
    _omega_labels,
    rc_partition,
    rc_weight,
)
from oracles import (
    bfs_components,
    brute_condexp,
    brute_coupled_marginal,
    brute_rc_weight,
    code_bits,
    code_partition_keys,
    first_omegas,
)
from strategies import certified_functions, model_function_region, small_models
from strategies import regions as regions_of

LN2 = math.log(2)

# subnormal weights carry fewer than 53 bits, so below this floor a
# normalized weight is compared to an absolute error only
_TINY = 1e-300


def kept_rows(table):
    """A partition table's rows of positive weight: their labels, their
    weights, and Z_rc."""
    keep = table.weights > 0.0
    return table.plan.labels[keep], table.weights[keep], table.z


def bond_partitions(aug):
    """kept_rows of the memoized table."""
    return kept_rows(random_cluster._partition_table(aug, DEFAULT_STATE_CAP))


def _reduce_bonds(aug, cap=DEFAULT_STATE_CAP):
    """The uncached reducer: neither the table nor the bond plan is memoized,
    so a patched _PARTITION_ROWS or cap takes effect."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random_cluster, "_bond_plan", random_cluster._bond_plan.__wrapped__)
        return kept_rows(random_cluster._partition_table.__wrapped__(aug, cap))


def edge_model(q=2, J=LN2, h=(0.0, 0.0)):
    return PottsModel(("u", "v"), (("u", "v"),), (J,), h, q)


def path3(q=2, J=1.0, h=(0.0, 0.0, 0.0)):
    return PottsModel(("u", "v", "w"), (("u", "v"), ("v", "w")), (J, J), h, q)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def test_augment_shapes_and_probabilities():
    m = edge_model(J=LN2, h=(LN2, 0.0))
    aug = augment(m)
    assert aug.n_bonds == len(m.edges) + m.n_vertices
    assert aug.p[0] == pytest.approx(0.5, rel=1e-12)  # real edge, J = ln 2
    assert aug.p[1] == pytest.approx(0.5, rel=1e-12)  # ghost edge, h = ln 2
    assert aug.p[2] == 0.0  # h = 0 exactly


def test_augment_field_free_ghost_edges_are_dead():
    aug = augment(path3())
    assert aug.p[2:] == (0.0, 0.0, 0.0)


def test_augment_probability_stays_below_one():
    aug = augment(PottsModel(("v",), (), (), (50.0,), 2))
    assert 0.0 < aug.p[0] < 1.0


# ---------------------------------------------------------------------------
# clusters: _omega_labels labels each by its smallest node; the ghost is node n
# ---------------------------------------------------------------------------


def test_clusters_all_closed():
    aug = augment(edge_model())
    assert _omega_labels(aug, [0, 0, 0]) == [0, 1, 2]


def test_clusters_single_ghost_bond():
    aug = augment(edge_model())
    assert _omega_labels(aug, [0, 1, 0]) == [0, 1, 0]  # ghost edge to u only


def test_clusters_transitive_connectivity():
    aug = augment(edge_model())
    assert _omega_labels(aug, [1, 0, 1]) == [0, 0, 0]  # u-v and ghost-v open


@given(small_models(max_n=4))
def test_clusters_partition_vertices(model):
    # every node's label is the smallest node of its BFS component in the
    # open subgraph
    aug = augment(model)
    for code in range(0, 2**aug.n_bonds, 7):  # stride keeps examples fast
        omega = code_bits(aug.n_bonds, code)
        labels = _omega_labels(aug, omega)
        comps = bfs_components(aug.n_vertices + 1, zip(aug.edge_index, omega))
        want = {x: min(comp) for comp in comps for x in comp}
        assert labels == [want[x] for x in range(aug.n_vertices + 1)]


def test_single_config_labels_past_int8_range():
    # 150 vertices and the ghost: int8 labels would wrap past 127 nodes
    n = 150
    names = tuple(f"v{i}" for i in range(n))
    model = PottsModel(names, tuple(zip(names, names[1:])), (1.0,) * (n - 1),
                       (0.5,) * n, 2)
    aug = augment(model)
    real_open = [1] * (n - 1) + [0] * n
    ghost_open = [1] * (n - 1) + [0] * (n - 1) + [1]  # ghost bond to the last
    cut = real_open[:100] + [0] + real_open[101:]  # v100-v101 closed
    assert _omega_labels(aug, real_open) == [0] * n + [n]
    assert _omega_labels(aug, ghost_open) == [0] * (n + 1)
    assert _omega_labels(aug, cut) == [0] * 101 + [101] * 49 + [n]
    assert event_Z(aug, cut, (names[0],), (names[-1],)) == 1
    for omega in (real_open, ghost_open, cut):
        assert rc_weight(aug, omega) == pytest.approx(
            brute_rc_weight(aug, omega), rel=1e-12
        )
    for omega in (real_open, ghost_open):
        assert event_Z(aug, omega, (names[0],), (names[-1],)) == 0


# ---------------------------------------------------------------------------
# random-cluster measure
# ---------------------------------------------------------------------------


def test_single_edge_open_probability():
    # p = 1/2, q = 2: phi(open) = p / (p + (1-p) q) = 1/3
    aug = augment(edge_model())
    open_mass = math.fsum(rc_probability(aug, code_bits(3, code))
                          for code in range(8) if code & 1)
    assert open_mass == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_zero_probability_bonds_never_open():
    aug = augment(edge_model())  # ghost edges have p = 0
    for code in range(8):
        if code & 0b110:
            assert rc_probability(aug, code_bits(3, code)) == 0.0


def test_all_closed_certain_when_free():
    aug = augment(PottsModel(("u", "v"), (("u", "v"),), (0.0,), (0.0, 0.0), 2))
    assert rc_probability(aug, [0, 0, 0]) == pytest.approx(1.0, abs=1e-15)


@given(small_models(max_n=3))
def test_rc_probability_normalized(model):
    aug = augment(model)
    probs = [rc_probability(aug, code_bits(aug.n_bonds, code))
             for code in range(2**aug.n_bonds)]
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
    assert min(probs) >= 0.0


@given(small_models(max_n=3))
def test_rc_weight_matches_bfs_oracle(model):
    aug = augment(model)
    for code in range(2**aug.n_bonds):
        omega = code_bits(aug.n_bonds, code)
        assert rc_weight(aug, omega) == pytest.approx(
            brute_rc_weight(aug, omega), rel=1e-12
        )


def test_rc_probability_single_config():
    aug = augment(edge_model())
    assert rc_probability(aug, [1, 0, 0]) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_bond_configuration_spellings_agree():
    # 0 and 1 as ints, numpy ints, bools or the characters '0' and '1'
    aug = augment(edge_model())
    want = rc_weight(aug, [1, 0, 0])
    for omega in ("100", [True, False, False], np.array([1, 0, 0]), ["1", 0, False]):
        assert rc_weight(aug, omega) == want
        assert _omega_labels(aug, omega) == _omega_labels(aug, [1, 0, 0])


@pytest.mark.parametrize(
    "omega, shown",
    [
        ([1.5, 0, 0.7], "[1.5, 0, 0.7]"),  # used to read as [1, 0, 0]
        ([1.0, 0, 0], "[1.0, 0, 0]"),
        ("01x", "[0, 1, 'x']"),  # used to raise a bare ValueError
        ([None, 0, 0], "[None, 0, 0]"),  # and this a TypeError
        (None, "None"),
        ([2, 0, 0], "[2, 0, 0]"),
        ("1 0", "[1, ' ', 0]"),
        ("10", "[1, 0]"),
    ],
)
def test_bond_configuration_accepts_only_bits(omega, shown):
    aug = augment(edge_model())
    message = f"bond configuration must be 3 bits over E+, got {shown}"
    for read in (rc_weight, _omega_labels, rc_probability):
        with pytest.raises(ModelError) as exc:
            read(aug, omega)
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# the bond reducers
# ---------------------------------------------------------------------------


@given(small_models(max_n=4))
@example(PottsModel(("u", "v", "w"), (), (), (0.3, 0.0, 1.0), 3))  # no edges
@example(PottsModel((), (), (), (), 2))  # no vertices
@example(PottsModel(("u", "v", "w"), (("u", "v"), ("v", "w")), (0.7, 1.2),
                    (2.2e-313, 0.4, 0.0), 2))  # a subnormal field
def test_partition_table_matches_oracle_partitions(model):
    # the brute weights of every code, summed by the oracle's partition
    # keys; the uncached reducer regroups past 4 rows, so that a table
    # memoized at the default _PARTITION_ROWS cannot stand in for it
    aug = augment(model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random_cluster, "_PARTITION_ROWS", 4)
        labels, weights, _ = _reduce_bonds(aug)
    assert_table_matches_oracle(aug, labels, weights)


def assert_table_matches_oracle(aug, labels, weights):
    """The table against the brute weight of every code, summed by the
    oracle's partition keys, to 1e-12."""
    keys = code_partition_keys(aug)
    brute = [brute_rc_weight(aug, code_bits(aug.n_bonds, c)) for c in range(len(keys))]
    z = math.fsum(brute)
    by_partition = {}
    for key, weight in zip(keys, brute):
        by_partition[key] = by_partition.get(key, 0.0) + weight
    # a partition whose weight underflows is dropped from the table
    got = {tuple(row): w for row, w in zip(labels.tolist(), weights.tolist())}
    assert len(got) == labels.shape[0]
    assert got.keys() <= by_partition.keys()
    for key, w in by_partition.items():
        assert got.get(key, 0.0) / z == pytest.approx(w / z, rel=1e-12, abs=_TINY)


@pytest.mark.parametrize("n1", [6, 20, 21, 25])
def test_partition_grouping_on_wide_label_rows(n1):
    # rows up to 20 nodes are keyed by sum_i labels[i] * i!, wider ones by
    # their bytes; both must group exactly like the rows themselves
    rng = np.random.default_rng(n1)
    nodes = np.arange(n1)
    rows = np.minimum(rng.integers(0, n1, size=(200, n1)), nodes)
    rows[:, -1] = rng.choice([0, n1 - 1], size=200)  # the largest key digit
    rows = rows[rng.integers(0, 200, size=600)].astype(np.int8)
    labels, inverse = _group_partitions(rows)
    assert inverse.dtype == np.int32
    assert len({tuple(row) for row in labels.tolist()}) == labels.shape[0]
    assert {tuple(row) for row in rows.tolist()} == {tuple(row) for row in labels.tolist()}
    assert np.array_equal(labels[inverse], rows)


def six_vertex_model():
    # 6 vertices and 11 edges: 17 bonds; three vertices have h = 0, so
    # their ghost bonds never open
    names = "abcdef"
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (2, 5), (3, 4),
             (3, 5), (4, 5), (0, 5)]
    return PottsModel(
        tuple(names),
        tuple((names[i], names[j]) for i, j in pairs),
        tuple(0.2 + 0.1 * i for i in range(len(pairs))),
        (0.3, 0.0, 0.7, 0.0, 0.0, 1.1),
        2,
    )


@functools.lru_cache(maxsize=4)
def partition_keys(aug):
    """code_partition_keys, kept for the 17-bond model's 2^17 codes."""
    return code_partition_keys(aug)


def per_code_weights(aug, labels):
    """q^k prod p^w (1-p)^(1-w) of every code, given each code's label row."""
    codes = np.arange(len(labels))[:, None]
    bits = (codes >> np.arange(aug.n_bonds)) & 1
    p = np.array(aug.p)
    bond_factors = np.where(bits == 1, p, 1.0 - p).prod(axis=1)
    k = np.count_nonzero(labels == np.arange(labels.shape[1]), axis=1)
    return float(aug.base.q) ** k * bond_factors


def k5_model(fields):
    # K5 with fields: 10 + 5 = 15 bonds
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    return model_from_indices(
        5, pairs, 3, J=tuple(0.2 + 0.13 * i for i in range(10)), h=fields
    )


@pytest.mark.parametrize(
    "model",
    [
        k5_model((0.4, 0.9, 0.1, 0.6, 1.0)),
        k5_model((0.0, 0.5, 0.0, 0.0, 0.8)),
        six_vertex_model(),
        model_from_indices(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 2),
    ],
    ids=["K5", "K5-some-h0", "6v-17-bonds", "K4-field-free"],
)
def test_bond_partitions_match_per_code_grouping(model):
    # the partitions and their weights must be those of grouping all 2^m
    # per-code rows; the first three models pass _PARTITION_ROWS rows and
    # regroup on the way, K4 field-free has 2^6 live-bond rows with repeated
    # partitions that only the last regrouping merges; the uncached reducer
    # regroups every time
    aug = augment(model)
    labels = np.array(partition_keys(aug))
    weights = per_code_weights(aug, labels)
    rows, inverse = np.unique(labels, axis=0, return_inverse=True)
    sums = np.bincount(inverse.ravel(), weights)
    want = {tuple(r): w for r, w in zip(rows.tolist(), sums.tolist()) if w > 0}
    got_labels, got_weights, _ = _reduce_bonds(aug)
    got = dict(zip(map(tuple, got_labels.tolist()), got_weights.tolist()))
    assert len(got) == len(got_weights)
    assert got.keys() == want.keys()
    for key, w in want.items():
        assert got[key] == pytest.approx(w, rel=1e-12)
    z = math.fsum(weights.tolist())
    assert rc_partition(aug) == pytest.approx(z, rel=1e-12)


def test_reducers_at_17_bonds_match_per_code_sums():
    aug = augment(six_vertex_model())
    assert aug.n_bonds == 17
    # P(sigma = 000111) as a product of indicator factors
    factors = [(SpinFunction((1, 0)), ("a", "b", "c")),
               (SpinFunction((0, 1)), ("d", "e", "f"))]
    keys = partition_keys(aug)
    weights = per_code_weights(aug, np.array(keys)).tolist()
    z = math.fsum(weights)
    assert rc_partition(aug) == pytest.approx(z, rel=1e-12)
    for code in range(0, 2**aug.n_bonds, 997):
        omega = code_bits(aug.n_bonds, code)
        assert rc_probability(aug, omega) == pytest.approx(weights[code] / z, rel=1e-12)
    g = {key: conditional_expectation(aug, omega, factors).real
         for key, omega in first_omegas(aug, keys).items()}
    want = math.fsum(w * g[key] for w, key in zip(weights, keys)) / z
    assert abs(rc_expectation(aug, factors) - want) <= 1e-12
    assert abs(coupled_spin_marginal(aug)[0b000111] - want) <= 1e-12


def test_partition_memo_checks_the_cap_on_every_call():
    # 2 live bonds of 5: the table doubles to 2 rows, then to 4 rows x 4 labels
    aug = augment(path3())
    memo = random_cluster._partition_table
    table = memo(aug, DEFAULT_STATE_CAP)
    assert memo(aug, DEFAULT_STATE_CAP) is table  # a hit
    assert table.plan.labels.size == 16 and memo(aug, 16) is not table
    with pytest.raises(EnumerationTooLarge):
        memo(aug, 15)
    with pytest.raises(EnumerationTooLarge):
        rc_expectation(aug, [], cap=15)
    with pytest.raises(EnumerationTooLarge):
        rc_partition(aug, cap=15)
    with pytest.raises(EnumerationTooLarge):
        coupled_spin_marginal(aug, cap=15)


def test_partition_sum_is_memoized_and_the_cap_checked_on_every_call(monkeypatch):
    # Z_rc is summed once per memoized table, not once per rc_probability
    aug = augment(path3(q=3, J=0.8, h=(0.5, 0.0, 1.0)))
    random_cluster._partition_table.cache_clear()
    sums = []
    fsum = random_cluster.fsum
    monkeypatch.setattr(random_cluster, "fsum", lambda xs: sums.append(1) or fsum(xs))
    z = rc_partition(aug)
    probabilities = [rc_probability(aug, omega) for omega in ([0] * 5, [1] * 5, [1, 0] * 2 + [1])]
    rc_expectation(aug, [])
    coupled_spin_marginal(aug)
    assert len(sums) == 1 + 2  # the table's Z, then the tower mean's two numerators
    assert z == math.fsum(_reduce_bonds(aug)[1].tolist())
    assert probabilities == [rc_weight(aug, omega) / z
                             for omega in ([0] * 5, [1] * 5, [1, 0] * 2 + [1])]
    for _ in range(2):  # checked on every call, not once per memoized table
        with pytest.raises(EnumerationTooLarge):
            rc_probability(aug, [0] * 5, cap=15)
    with pytest.raises(EnumerationTooLarge):
        rc_partition(aug, cap=15)


def test_partition_memo_is_read_only():
    aug = augment(path3(q=3, h=(0.5, 0.0, 1.0)))
    table = random_cluster._partition_table(aug, DEFAULT_STATE_CAP)
    labels, weights = table.plan.labels, table.weights
    with pytest.raises(ValueError):
        labels[0, 0] = 1
    with pytest.raises(ValueError):
        weights[0] = 0.0
    with pytest.raises(ValueError):
        weights *= 2.0
    # the tower mean's label index, built once per plan, is read-only too
    rc_expectation(aug, [(make_family("A", 3), ("u", "v"))])
    index = table.plan.index
    assert len(index) == 3
    for array in index:
        with pytest.raises(ValueError):
            array[0] = 0


def ladder(cols, q=3, J=0.4, h=0.3):
    # 2 x cols: vertex i above vertex cols + i; 3 cols - 2 edges, 2 cols fields
    pairs = [(i, i + 1) for i in range(cols - 1)]
    pairs += [(cols + i, cols + i + 1) for i in range(cols - 1)]
    pairs += [(i, cols + i) for i in range(cols)]
    return model_from_indices(2 * cols, pairs, q, J=J, h=h)


def carried_reduction(aug):
    """Labels and weights reduced together, a bond at a time, with no plan:
    the reference a replayed table must equal bit for bit."""
    n1 = aug.n_vertices + 1
    labels = np.arange(n1, dtype=np.int8)[None, :]
    weights = np.ones(1)
    for (a, b), p in zip(aug.edge_index, aug.p):
        if p == 0.0:
            continue
        labels = np.concatenate([labels, random_cluster._merge(labels, a, b)])
        weights = np.concatenate([weights * (1.0 - p), weights * p])
        if len(weights) > random_cluster._PARTITION_ROWS:
            labels, inverse = _group_partitions(labels)
            weights = np.bincount(inverse, weights)
    labels, inverse = _group_partitions(labels)
    weights = np.bincount(inverse, weights)
    weights *= float(aug.base.q) ** np.count_nonzero(labels == np.arange(n1), axis=1)
    keep = weights > 0.0
    return labels[keep], weights[keep], math.fsum(weights[keep].tolist())


@pytest.fixture
def fresh_plans():
    random_cluster._partition_table.cache_clear()
    random_cluster._bond_plan.cache_clear()
    yield random_cluster._bond_plan.cache_info
    random_cluster._partition_table.cache_clear()


def test_one_plan_serves_every_weighting_of_a_graph(fresh_plans):
    # two K4 models with a field everywhere: the same live bonds, new (J, h)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    models = [model_from_indices(4, pairs, 3, J=J, h=h)
              for J, h in ((0.3, 0.5), ((0.9, 0.2, 1.4, 0.6, 0.1, 2.0), (1.1, 0.4, 0.7, 0.2)))]
    tables = [random_cluster._partition_table(augment(m), DEFAULT_STATE_CAP)
              for m in models]
    assert fresh_plans().misses == 1 and fresh_plans().hits == 1
    assert tables[0].plan is tables[1].plan and tables[0].z != tables[1].z
    for m, table in zip(models, tables):
        assert_table_matches_oracle(augment(m), *kept_rows(table)[:2])


def test_dead_ghost_bonds_key_a_plan_apart(fresh_plans):
    # h = 0 gives a ghost bond p = 0: the plan of the other live bonds
    pairs = [(0, 1), (1, 2), (0, 2)]
    with_field = model_from_indices(3, pairs, 2, J=0.6, h=(0.5, 0.3, 0.8))
    without = model_from_indices(3, pairs, 2, J=0.6, h=(0.0, 0.3, 0.8))
    for m in (with_field, without):
        labels, weights, _ = bond_partitions(augment(m))
        assert_table_matches_oracle(augment(m), labels, weights)
    assert fresh_plans().misses == 2 and fresh_plans().hits == 0
    # a plan of one weighting stays that graph's for another
    bond_partitions(augment(replace(without, h=(0.0, 2.0, 0.8))))
    assert fresh_plans().misses == 2 and fresh_plans().hits == 1


REPLAYED = {f"suite{i}": m for i, m in enumerate(verification_suite())}
REPLAYED["ladder-2x5"] = ladder(5)
REPLAYED["torus-3x3-q3"] = torus_grid(3, 3, q=3, J=0.5, h=0.2)


@pytest.mark.parametrize("model", REPLAYED.values(), ids=REPLAYED.keys())
def test_replayed_tables_equal_the_carried_reduction(fresh_plans, model):
    # the table replayed on a plan first built for other weights, the uncached
    # plan and replay, and labels and weights reduced together agree bit for bit
    scaled = PottsModel(model.vertices, model.edges, tuple(2.5 * J for J in model.J),
                        tuple(0.5 * h for h in model.h), model.q)
    bond_partitions(augment(scaled))
    aug = augment(model)
    table = bond_partitions(aug)
    assert fresh_plans().misses == 1
    for got in (_reduce_bonds(aug), carried_reduction(aug)):
        assert np.array_equal(table[0], got[0])
        assert table[1].tolist() == got[1].tolist()
        assert table[2] == got[2]


def test_partition_memo_keys_on_every_coupling():
    # the two graphs differ only in the second J
    a = augment(path3(q=3, J=0.5))
    b = augment(replace(path3(q=3, J=0.5), J=(0.5, 0.9)))
    za, zb = rc_partition(a), rc_partition(b)
    assert za != zb
    assert za == math.fsum(_reduce_bonds(a)[1].tolist())
    assert zb == math.fsum(_reduce_bonds(b)[1].tolist())
    assert rc_partition(a) == za and rc_partition(b) == zb


def coupling_cycle(seed):
    """One cycle's 64 graphs as the coupling benchmark draws them: the 56 suite
    models, then six K5 q=3 graphs of 9 edges and two of 10, with seeded J, h."""
    rng = np.random.default_rng(seed)
    models = list(verification_suite())
    for n_edges in (9,) * 6 + (10,) * 2:
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)][:n_edges]
        models.append(model_from_indices(
            5, pairs, 3, J=tuple(rng.uniform(0.2, 1.5, size=n_edges)),
            h=tuple(rng.uniform(0.1, 1.0, size=5))))
    return models


def test_a_suite_table_outlives_a_coupling_cycle(fresh_plans):
    # the first suite graph's table, then every other graph of two cycles:
    # 63 misses, then 55 hits and the second cycle's 8 new K5 graphs
    memo = random_cluster._partition_table
    first = coupling_cycle(0)[0]
    table = memo(augment(first), DEFAULT_STATE_CAP)
    for seed in (0, 1):
        for model in coupling_cycle(seed)[1:]:
            aug = augment(model)
            coupled_spin_marginal(aug)
            rc_expectation(aug, [(make_family("A", model.q), model.vertices[:2])])
        assert memo(augment(first), DEFAULT_STATE_CAP) is table
    info = memo.cache_info()
    assert info.misses == 1 + 63 + 8
    assert info.hits == 63 + 1 + 2 * 55 + 8 + 1
    assert info.currsize <= 64


def test_a_table_past_the_budget_is_kept_and_built_once_per_rc_run(
        fresh_plans, tmp_path, capsys):
    # the 2x6 ladder's table, 8 bytes for each of its 320,107 partitions, is
    # built once: the Z identity, the spin law and the tower mean of
    # `potts-gks rc` share it
    memo = random_cluster._partition_table
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder(6).to_json_dict()))
    assert run(["rc", "--model", str(path), "--f", "A", "--R", "a,b"]) == 0
    assert '"violations": 0' in capsys.readouterr().out
    info = memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    assert len(memo(augment(ladder(6)), DEFAULT_STATE_CAP).weights) == 320_107


@pytest.mark.parametrize(
    "model",
    [
        PottsModel(("u", "v", "w"), (("u", "v"), ("v", "w"), ("u", "w")),
                   (1e3, 1e3, 1e3), (0.0, 0.0, 0.0), 3),
        path3(q=2, J=1e3, h=(1e3, 0.0, 0.0)),
        PottsModel(("a", "b", "c", "d"),
                   (("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")),
                   (1e3, 0.5, 1e3, 2.0), (0.0, 1e3, 0.0, 0.3), 4),
    ],
)
def test_bond_reducer_extreme_regime(model):
    # p at _P_MAX on J, h = 1e3 and ghost p = 0 at h = 0
    aug = augment(model)
    assert _P_MAX in aug.p and 0.0 in aug.p
    f = make_family("B", model.q)
    R = model.vertices[:2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_z_rc = math.log(rc_partition(aug))
        log_z = log_partition_function(model)
        marginal = coupled_spin_marginal(aug)
        pi = potts_distribution(model)
        lhs = rc_expectation(aug, [(f, R)])
        rhs = potts_expectation(model, [(f, R)])
    # Z_rc = q Z e^(-sum J - sum h); subtracting sum J ~ 3e3 costs digits
    shift = math.fsum(model.J) + math.fsum(model.h)
    assert abs(log_z_rc - math.log(model.q) - (log_z - shift)) <= 1e-10
    assert 0.5 * float(np.sum(np.abs(marginal - pi))) <= 1e-10
    assert abs(lhs - rhs) <= 1e-10


def test_rc_partition_past_the_old_cap_is_q_times_shifted_z():
    # Z_rc = q Z e^(-sum J - sum h); the 2x6 ladder has 2^28 bond
    # configurations, past the cap, but 320,107 partitions
    model = ladder(6)
    shifted = math.exp(log_partition_function(model) - math.fsum(model.J)
                       - math.fsum(model.h))
    assert rc_partition(augment(model)) == pytest.approx(model.q * shifted, rel=1e-12)


@pytest.mark.parametrize("kind", ["A", "B"])
def test_coupling_and_tower_past_the_old_cap(kind):
    # the 3x3 q=3 torus of criterion 7: 27 bonds, 2^27 codes, 35,528 partitions
    model = torus_grid(3, 3, q=3, J=0.5, h=0.2)
    aug = augment(model)
    assert 2**aug.n_bonds > DEFAULT_STATE_CAP
    marginal = coupled_spin_marginal(aug)
    assert 0.5 * float(np.sum(np.abs(marginal - potts_distribution(model)))) <= 1e-10
    factors = [(make_family(kind, 3), ("s00", "s01", "s11"))]
    assert abs(rc_expectation(aug, factors) - potts_expectation(model, factors)) <= 1e-10


@pytest.mark.parametrize(
    "model",
    [
        torus_grid(4, 4, q=3, J=0.4, h=0.3),
        PottsModel(tuple(f"v{i}" for i in range(130)), (), (), (0.0,) * 130, 2),
    ],
    ids=["torus-4x4-48-bonds", "edgeless-130-vertices"],
)
def test_cap_bounds_the_partition_table(model):
    # the torus's partitions run towards Bell(17) ~ 8e10, and the cap stops
    # the table at about 1.3 million rows x 17 labels; the edgeless model has
    # no live bond, but its 131 nodes would wrap int8 labels
    with pytest.raises(EnumerationTooLarge):
        rc_partition(augment(model))


def test_int8_labels_hold_exactly_127_nodes():
    # 126 vertices and the ghost fit int8 labels, 127 and the ghost do not;
    # with no live bond the plan is one row, so Z_rc is q^(n+1)
    def edgeless(n):
        return PottsModel(tuple(f"v{i}" for i in range(n)), (), (), (0.0,) * n, 2)

    assert rc_partition(augment(edgeless(126))) == 2.0**127
    with pytest.raises(EnumerationTooLarge, match="over 128 nodes"):
        rc_partition(augment(edgeless(127)))


# ---------------------------------------------------------------------------
# cluster-spin coupling
# ---------------------------------------------------------------------------


def _colour(aug, omega, rng):
    """The spins (ghost's 0 last) that _run_chain's recolour loop gives the
    clusters of omega: from all spins 0, every bond passes its spin test, so
    a uniform of 0 opens an omega-open bond and 1 closes the rest."""
    assert all(aug.p[e] > 0 for e, w in enumerate(omega) if w)
    sp = [0] * (aug.n_vertices + 1)
    bond_u = np.array([[0.0 if w else 1.0 for w in omega]])
    _run_chain(aug, _ClusterFactors(aug.base, []), False, bond_u,
               rng.random((1, aug.n_vertices)), sp)
    return sp


def test_sample_spins_ghost_cluster_is_zero():
    aug = augment(edge_model(h=(1.0, 1.0)))
    rng = np.random.default_rng(7)
    spins = _colour(aug, [0, 1, 1], rng)
    assert spins == [0, 0, 0]


def test_sample_spins_monochromatic_cluster():
    aug = augment(edge_model(q=5))
    rng = np.random.default_rng(11)
    colours = set()
    for _ in range(50):
        spins = _colour(aug, [1, 0, 0], rng)
        assert spins[0] == spins[1]
        colours.add(spins[0])
    assert len(colours) > 1  # the one cluster takes a uniform colour


def test_sample_spins_uniform_chi2():
    aug = augment(PottsModel(("v",), (), (), (0.0,), 2))
    rng = np.random.default_rng(3)
    draws = np.array([_colour(aug, [0], rng)[0] for _ in range(10_000)])
    counts = np.bincount(draws, minlength=2)
    assert stats.chisquare(counts).pvalue > 0.01


def test_coupled_marginal_single_edge():
    # P(sigma_u == sigma_v) = 1/3 + (2/3)(1/2) = 2/3 = e^J/(e^J+1) at J = ln 2
    aug = augment(edge_model())
    marginal = coupled_spin_marginal(aug)
    aligned = marginal[0] + marginal[3]  # states 00 and 11
    assert aligned == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_coupled_marginal_free_is_uniform():
    m = PottsModel(("u", "v"), (("u", "v"),), (0.0,), (0.0, 0.0), 3)
    marginal = coupled_spin_marginal(augment(m))
    assert np.allclose(marginal, 1.0 / 9.0, atol=1e-14)


def test_coupled_marginal_no_vertices():
    # one spin state, the empty one; only the ghost's cluster, so Z = q
    aug = augment(PottsModel((), (), (), (), 3))
    assert coupled_spin_marginal(aug).tolist() == [1.0]
    assert rc_partition(aug) == 3.0


def test_coupled_marginal_strong_field():
    m = PottsModel(("v",), (), (), (30.0,), 3)
    marginal = coupled_spin_marginal(augment(m))
    assert marginal[0] >= 1.0 - 1e-9


@given(small_models(max_n=3))
def test_coupling_matches_potts_measure(model):
    marginal = coupled_spin_marginal(augment(model))
    pi = potts_distribution(model)
    assert 0.5 * float(np.sum(np.abs(marginal - pi))) <= 1e-10


@given(small_models(max_n=3, max_q=3))
def test_coupled_marginal_matches_bfs_oracle(model):
    aug = augment(model)
    marginal = coupled_spin_marginal(aug)
    oracle = brute_coupled_marginal(aug)
    place = model.q ** np.arange(model.n_vertices - 1, -1, -1)
    for sigma, prob in oracle.items():
        flat = int(np.dot(sigma, place))
        assert marginal[flat] == pytest.approx(prob, abs=1e-12)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize(
    "model",
    [
        path3(q=3, J=0.8, h=(1.0, 0.0, 0.5)),
        PottsModel(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")),
                   (0.3, 1.2, 0.7), (0.0, 0.0, 0.9), 4),
        model_from_indices(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], 2,
                           J=(0.5, 1.0, 0.2, 0.9, 0.4), h=(0.6, 0.3, 0.0, 1.2)),
    ],
    ids=["path3", "triangle-q4", "K4-minus-edge"],
)
def test_coupled_marginal_chunks_match_potts_and_oracle(model, block):
    # chunks of `block` states, so the partitions with k clusters away from
    # the ghost are split into chunks of max(1, block // q^k) rows, the last
    # one often short; with fields the ghost's cluster often has a real
    # vertex as its minimum label, whose colour is 0, not a free one
    aug = augment(model)
    n, q = model.n_vertices, model.q
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random_cluster, "_STATE_BLOCK", block)
        marginal = coupled_spin_marginal(aug)
    labels, _, _ = bond_partitions(aug)
    assert np.any(labels[:, n] < n)
    k = [len(set(row[:n]) - {row[n]}) for row in labels.tolist()]
    chunks = sum(-(-k.count(c) // max(1, block // q**c)) for c in set(k))
    assert chunks > len(set(k))
    assert np.max(np.abs(marginal - potts_distribution(model))) <= 1e-12
    want = np.zeros(q**n)
    for sigma, prob in brute_coupled_marginal(aug).items():
        want[int(np.dot(sigma, q ** np.arange(n - 1, -1, -1)))] = prob
    assert np.max(np.abs(marginal - want)) <= 1e-12


def test_spin_law_on_a_shared_plan_with_underflowed_rows(fresh_plans):
    # K7 at J = 1e3: the all-singleton partition's weight (1 - p)^21
    # underflows to 0 in the table of a plan first laid out for a mild
    # weighting; that row adds zeros to the law
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    mild = model_from_indices(7, pairs, 2, J=0.3, h=0.0)
    hard = model_from_indices(7, pairs, 2, J=1e3, h=0.0)
    for model in (mild, hard):
        marginal = coupled_spin_marginal(augment(model))
        assert 0.5 * float(np.sum(np.abs(marginal - potts_distribution(model)))) <= 1e-12
    assert fresh_plans().misses == 1
    table = random_cluster._partition_table(augment(hard), DEFAULT_STATE_CAP)
    assert np.count_nonzero(table.weights == 0.0) == 1
    assert list(table.plan.layouts) == [2]
    # 14214 states are past the budget: the chunks stream
    assert table.plan.layouts[2].entries is None
    assert np.max(np.abs(coupled_spin_marginal(augment(hard))
                         - potts_distribution(hard))) <= 1e-12


def test_tower_mean_on_a_plan_with_underflowed_rows(fresh_plans):
    # the K7 table at J = 1e3 weighs one row of its plan 0.0: the tower mean,
    # taken on the plan's label index, keeps the rows of positive weight and
    # equals of_rows on their labels bit for bit
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    hard = model_from_indices(7, pairs, 2, J=1e3, h=0.0)
    aug = augment(hard)
    factors = [(SpinFunction((0.9, complex(-0.4, 0.2))), hard.vertices[:3]),
               (SpinFunction((complex(-0.0, 0.0), 1.3)), hard.vertices[2:])]
    got = rc_expectation(aug, factors)
    table = random_cluster._partition_table(aug, DEFAULT_STATE_CAP)
    assert len(table.weights) == len(table.plan.labels)
    assert np.count_nonzero(table.weights == 0.0) == 1
    assert not table.weights.flags.writeable
    labels, weights, z = kept_rows(table)
    assert len(labels) == len(table.plan.labels) - 1
    assert np.array([z]).tobytes() == np.array([math.fsum(weights.tolist())]).tobytes()
    g = _ClusterFactors(hard, factors).of_rows(labels)
    want = complex(math.fsum((weights * g.real).tolist()) / z,
                   math.fsum((weights * g.imag).tolist()) / z)
    assert np.array([got]).tobytes() == np.array([want]).tobytes()
    assert abs(got - potts_expectation(hard, factors)) <= 1e-10


@pytest.mark.parametrize("model", list(REPLAYED.values())[:56:5],
                         ids=list(REPLAYED)[:56:5])
def test_spin_index_memo_and_streamed_chunks_agree_bit_for_bit(fresh_plans, model):
    # a suite plan memoizes one index, within the budget, of every row's
    # states in the layout's order; the chunks streamed without it add the
    # same terms in the same order
    aug = augment(model)
    law = coupled_spin_marginal(aug)
    plan = random_cluster._partition_table(aug, DEFAULT_STATE_CAP).plan
    layout = plan.layouts[model.q]
    (index, rows, states), = layout.entries
    assert rows is layout.order
    assert states.tolist() == layout.divisor[layout.order].tolist()  # q^k
    assert len(index) == states.sum() <= random_cluster._STATE_BLOCK // 2
    plan.layouts[model.q] = layout._replace(entries=None)
    assert coupled_spin_marginal(aug).tobytes() == law.tobytes()
    assert plan.layouts[model.q].entries is None


def pinned_bond_models():
    """The 56 suite models, then two seeded K5 q=3 graphs of 9 and 10 edges."""
    rng = np.random.default_rng(21)
    models = list(verification_suite())
    for n_edges in (9, 10):
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)][:n_edges]
        models.append(model_from_indices(
            5, pairs, 3, J=tuple(rng.uniform(0.2, 1.5, size=n_edges)),
            h=tuple(rng.uniform(0.1, 1.0, size=5))))
    return models


# SHA-256 of the spin laws' bytes and of the tower means (family A on every
# vertex, family B on the first two) of pinned_bond_models, taken when pinned
SPIN_LAW_SHA256 = "a8e564b97763932def011823515b175268125397c0f9530bc4d422f97c5b0e3c"
RC_MEANS_SHA256 = "44975650090f65bcc83371f6731272c0f8384fe679d2afc38d17ddd9969f3af0"


def test_spin_laws_and_tower_means_are_frozen():
    laws, means = hashlib.sha256(), []
    for model in pinned_bond_models():
        aug = augment(model)
        laws.update(coupled_spin_marginal(aug).tobytes())
        means.append(rc_expectation(aug, [(make_family("A", model.q), model.vertices)]))
        means.append(rc_expectation(aug, [(make_family("B", model.q), model.vertices[:2])]))
    assert len(means) == 2 * 58
    assert laws.hexdigest() == SPIN_LAW_SHA256
    assert hashlib.sha256(np.array(means).tobytes()).hexdigest() == RC_MEANS_SHA256


def signed_tables(q):
    """Two value tables of q entries with negative, complex and ±0.0 entries."""
    first = [0.9 - 0.4j, -1.3, complex(-0.0, 0.0), complex(0.0, -0.0), 0.5 + 1.1j]
    second = [complex(-0.0, -0.0), -0.6 + 0.8j, 1.7, -0.2j, -2.1 - 0.5j]
    return [SpinFunction([values[i % 5] for i in range(q)]) for values in (first, second)]


# SHA-256 of the bytes of the tower means and the conditional expectations
# (ghost in and out, on the all-closed, all-open and one seeded omega) of
# pinned_bond_models under signed_tables, taken when pinned
SIGNED_MEANS_SHA256 = "92206152a2133297d4752eba7eec73805fc2c5596f3b7109b066a1f23c1a588a"


def test_tower_and_conditional_means_of_signed_tables_are_frozen():
    rng = np.random.default_rng(22)
    means = []
    for model in pinned_bond_models():
        aug = augment(model)
        f, g = signed_tables(model.q)
        vertices = model.vertices
        for factors in ([(f, vertices)], [(f, vertices), (g, vertices[:2])],
                        [(g, vertices[1:]), (f, vertices[::2])]):
            means.append(rc_expectation(aug, factors))
            for omega in ([0] * aug.n_bonds, [1] * aug.n_bonds,
                          rng.integers(0, 2, size=aug.n_bonds).tolist()):
                means.append(conditional_expectation(aug, omega, factors))
                means.append(conditional_expectation(aug, omega, factors, False))
    assert len(means) == 3 * 7 * 58
    assert hashlib.sha256(np.array(means).tobytes()).hexdigest() == SIGNED_MEANS_SHA256


# ---------------------------------------------------------------------------
# conditional expectations
# ---------------------------------------------------------------------------


def test_condexp_all_closed_factorizes():
    aug = augment(edge_model(q=3))
    f = SpinFunction((0.8, 0.3, 0.1))
    s1_over_q = sum(f.values) / 3
    got = conditional_expectation(aug, [0, 0, 0], [(f, ("u", "v"))])
    assert got == pytest.approx(s1_over_q**2, abs=1e-13)


def test_condexp_roots_of_unity_vanishes():
    aug = augment(edge_model(q=3, J=1.0, h=(0.0, 0.0)))
    f = make_family("B", 3)
    got = conditional_expectation(aug, [0, 0, 0], [(f, ("u",))])
    assert abs(got) <= 1e-12


def test_condexp_ghost_cluster_pins_to_f0():
    aug = augment(edge_model(q=3, h=(1.0, 1.0)))
    f = SpinFunction((0.9, 0.5, 0.1))
    got = conditional_expectation(aug, [0, 1, 1], [(f, ("u", "v"))])
    assert got == pytest.approx(0.9**2, abs=1e-13)


def test_condexp_empty_factors_is_one():
    aug = augment(edge_model())
    assert conditional_expectation(aug, [0, 0, 0], []) == 1.0


# ---------------------------------------------------------------------------
# the connectivity event
# ---------------------------------------------------------------------------


@settings(max_examples=30)
@given(data=st.data())
def test_condexp_matches_colouring_oracle(data):
    # every omega of the model against an oracle that colours BFS clusters
    model = data.draw(small_models(max_n=4))
    aug = augment(model)
    f, g = (data.draw(certified_functions(model.q)) for _ in range(2))
    R, S = (data.draw(regions_of(model)) for _ in range(2))
    for code in range(2**aug.n_bonds):
        omega = code_bits(aug.n_bonds, code)
        for factors in ([(f, R)], [(f, R), (g, S)]):
            want = brute_condexp(aug, omega, factors)
            assert abs(conditional_expectation(aug, omega, factors) - want) <= 1e-12
        want = brute_condexp(aug, omega, [(f, R)], include_ghost=False)
        got = conditional_expectation(aug, omega, [(f, R)], include_ghost=False)
        assert abs(got - want) <= 1e-12


def test_event_all_closed():
    aug = augment(path3())
    assert event_Z(aug, [0] * aug.n_bonds, ("u",), ("w",)) == 1


def test_event_ghost_contact():
    aug = augment(path3(h=(0.0, 0.0, 1.0)))
    omega = [0, 0, 0, 0, 1]  # ghost edge to w open
    assert event_Z(aug, omega, ("u",), ("w",)) == 0


def test_event_open_path_through_middle():
    aug = augment(path3())
    omega = [1, 1, 0, 0, 0]  # u-v and v-w open
    assert event_Z(aug, omega, ("u",), ("w",)) == 0
    assert event_Z(aug, [1, 0, 0, 0, 0], ("u",), ("w",)) == 1


# ---------------------------------------------------------------------------
# tower identity and per-configuration inequalities
# ---------------------------------------------------------------------------


@given(model_function_region(max_n=3))
def test_tower_identity(mfr):
    model, f, R = mfr
    aug = augment(model)
    lhs = rc_expectation(aug, [(f, R)])
    rhs = potts_expectation(model, [(f, R)])
    assert lhs == pytest.approx(rhs, abs=1e-10)


@given(model_function_region(max_n=3))
def test_tower_identity_pairs(mfr):
    model, f, R = mfr
    S = model.vertices[: len(model.vertices) // 2 + 1]
    aug = augment(model)
    lhs = rc_expectation(aug, [(f, R), (f, S)])
    rhs = potts_expectation(model, [(f, R), (f, S)])
    assert lhs == pytest.approx(rhs, abs=1e-10)


def _tower_by_rows(aug, factors):
    """The tower mean two more ways: product() on every partition row, and
    conditional_expectation on every code, once per oracle partition, weighted
    by the code's brute weight."""
    table = _ClusterFactors(aug.base, factors)
    labels, weights, _ = bond_partitions(aug)
    by_row = []
    for row in labels.tolist():
        g = row[-1]
        by_row.append(table.product(row, g, [v for v, lab in enumerate(row)
                                             if lab == v and v != g]))
    z = math.fsum(weights.tolist())
    rows = complex(math.fsum(w * x.real for w, x in zip(weights, by_row)) / z,
                   math.fsum(w * x.imag for w, x in zip(weights, by_row)) / z)
    keys = code_partition_keys(aug)
    g = {key: conditional_expectation(aug, omega, factors)
         for key, omega in first_omegas(aug, keys).items()}
    per_code = per_code_weights(aug, np.array(keys)).tolist()
    z = math.fsum(per_code)
    codes = complex(math.fsum(w * g[key].real for w, key in zip(per_code, keys)) / z,
                    math.fsum(w * g[key].imag for w, key in zip(per_code, keys)) / z)
    return rows, codes


@settings(max_examples=60)
@given(data=st.data())
def test_batched_tower_matches_row_products_and_per_code_sums(data):
    model = data.draw(small_models(max_n=4))
    aug = augment(model)
    factors = [(data.draw(certified_functions(model.q)), data.draw(regions_of(model)))
               for _ in range(data.draw(st.integers(0, 3)))]
    got = rc_expectation(aug, factors)
    rows, codes = _tower_by_rows(aug, factors)
    assert abs(got - rows) <= 1e-12
    assert abs(got - codes) <= 1e-12


@pytest.mark.parametrize(
    "model, factors",
    [
        (path3(q=3, h=(0.4, 0.0, 0.9)), []),
        (PottsModel((), (), (), (), 3), []),
        (PottsModel((), (), (), (), 2), [(make_family("A", 2), ())]),
        (path3(q=3, J=0.8, h=(0.0, 0.6, 0.0)),
         [(make_family("C", 3, [0.9, 0.2, 0.5]), ("u", "v")),
          (make_family("A", 3), ("v", "w"))]),
        (k5_model((0.4, 0.0, 0.1, 0.6, 0.0)),
         [(make_family("B", 3), ("a", "c", "d")), (make_family("B", 3), ("c", "e"))]),
    ],
    ids=["no-factors", "no-vertices", "no-vertices-empty-region", "overlapping-regions",
         "family-B-K5"],
)
def test_batched_tower_cases(model, factors):
    aug = augment(model)
    got = rc_expectation(aug, factors)
    rows, codes = _tower_by_rows(aug, factors)
    assert abs(got - rows) <= 1e-12
    assert abs(got - codes) <= 1e-12
    assert abs(got - potts_expectation(model, factors)) <= 1e-10
    if not factors:
        assert got == 1.0 and got.imag == 0.0


def test_batched_tower_ghost_cluster_rooted_at_a_real_vertex():
    # with fields, the ghost's cluster usually holds vertex 0, whose label is
    # then the cluster's: that root is coloured 0, not a free colour
    model = path3(q=3, J=0.8, h=(1.0, 0.0, 0.5))
    aug = augment(model)
    labels, _, _ = bond_partitions(aug)
    assert np.any(labels[:, -1] == 0)
    f = make_family("C", 3, [0.9, 0.1, 0.4])
    table = _ClusterFactors(model, [(f, ("u", "w"))])
    for row, got in zip(labels.tolist(), table.of_rows(labels)):
        g = row[-1]
        want = table.product(row, g, [v for v, lab in enumerate(row) if lab == v and v != g])
        assert abs(got - want) <= 1e-15
    without = table.of_rows(labels, include_ghost=False)
    omegas = first_omegas(aug, code_partition_keys(aug))  # a row's labels are its key
    ghost_free = [brute_condexp(aug, omegas[tuple(row)], [(f, ("u", "w"))],
                                include_ghost=False)
                  for row in labels.tolist()]
    assert np.max(np.abs(without - ghost_free)) <= 1e-15
    rows, _ = _tower_by_rows(aug, [(f, ("u", "w"))])
    assert abs(rc_expectation(aug, [(f, ("u", "w"))]) - rows) <= 1e-12


@settings(max_examples=60)
@given(data=st.data())
def test_touched_product_is_product_bit_for_bit(data):
    # on every partition row: the product over the touched roots alone has
    # product()'s bits, unless it is None
    model = data.draw(small_models(max_n=4))
    factors = [(data.draw(certified_functions(model.q)), data.draw(regions_of(model)))
               for _ in range(data.draw(st.integers(0, 3)))]
    table = _ClusterFactors(model, factors)
    labels, _, _ = bond_partitions(augment(model))
    for row in labels.tolist():
        g = row[-1]
        short = table.touched_product(row, g)
        if short is not None:
            full = table.product(row, g, [v for v, lab in enumerate(row)
                                          if lab == v and v != g])
            assert np.complex128(short).tobytes() == np.complex128(full).tobytes(), row


@pytest.mark.parametrize(
    "z, fixed",
    [(complex(1.0, 2.0), True), (complex(-1.0, -2.0), True), (complex(0.0, 0.0), True),
     (complex(-1.0, 0.0), True), (complex(-0.0, 0.0), False), (complex(0.0, -0.0), False),
     (complex(1.0, -0.0), False), (complex(-0.0, -1.0), False),
     (complex(math.inf, 0.0), False), (complex(1.0, math.nan), False)],
)
def test_fixed_by_one_only_where_one_keeps_the_bits(z, fixed):
    # an untouched cluster's factor is exactly 1+0j: the guard passes only
    # values it leaves alone, in Python's and numpy's complex product
    assert _fixed_by_one(z) == fixed
    assert _fixed_by_one(np.complex128(z)) == fixed
    if fixed:
        for got in (z * (1 + 0j), np.complex128(z) * np.complex128(1 + 0j)):
            assert np.complex128(got).tobytes() == np.complex128(z).tobytes()


def test_batched_factors_refuse_codes_past_float64():
    # 54 one-vertex factors: codes up to 2^54 - 1, not exact in float64
    aug = augment(edge_model())
    factors = [(make_family("A", 2), ("u",))] * 54
    with pytest.raises(ModelError):
        conditional_expectation(aug, [0, 0, 0], factors)
    with pytest.raises(ModelError):
        rc_expectation(aug, factors)


def test_cluster_factors_share_powers_only_between_equal_value_tables():
    model = path3(q=3)
    a = _ClusterFactors(model, [(make_family("A", 3), ("u", "v"))])
    other_region = _ClusterFactors(model, [(make_family("A", 3), ("v", "w"))])
    assert other_region.powtab is a.powtab and other_region._cluster is a._cluster
    assert other_region._ghost is a._ghost and not a.powtab.flags.writeable
    # another max_m is another code base; -0.0 is another table than 0.0
    assert _ClusterFactors(model, [(make_family("A", 3), ("u",))]).powtab is not a.powtab
    zero, signed = (SpinFunction((1.0, 0.5, 0.0)), SpinFunction((1.0, 0.5, -0.0)))
    assert zero == signed
    tables = [_ClusterFactors(model, [(f, ("u",))]) for f in (zero, signed)]
    assert tables[0].powtab is not tables[1].powtab
    assert np.signbit(tables[1].powtab[0, 2, 1].real)


def _monotone_on_bond_lattice(model, f, R):
    aug = augment(model)
    keys = code_partition_keys(aug)
    g = {key: conditional_expectation(aug, omega, [(f, R)])
         for key, omega in first_omegas(aug, keys).items()}
    values = [g[key] for key in keys]
    for code in range(2**aug.n_bonds):
        for e in range(aug.n_bonds):
            if not (code >> e) & 1:
                up = values[code | (1 << e)]
                assert up.real >= values[code].real - 1e-12
                assert abs(up.imag) <= 1e-12


@pytest.mark.parametrize("kind", ["A", "B", "C"])
def test_condexp_monotone_on_bond_lattice(kind):
    q = 3
    values = [1 - x / q for x in range(q)] if kind == "C" else None
    f = make_family(kind, q, values)
    model = path3(q=q, J=1.0, h=(0.5, 0.0, 0.25))
    _monotone_on_bond_lattice(model, f, ("u", "w"))


@pytest.mark.parametrize("kind", ["A", "B", "C"])
def test_condexp_cluster_product_bound(kind):
    # E(f^R f^S | w) >= g_R(w) g_S(w) for peak-at-0 members, every w
    q = 3
    values = [1 - x / q for x in range(q)] if kind == "C" else None
    f = make_family(kind, q, values)
    model = path3(q=q, J=1.0, h=(0.5, 0.0, 0.25))
    R, S = ("u", "v"), ("v", "w")
    aug = augment(model)

    def sides(omega):
        joint = conditional_expectation(aug, omega, [(f, R), (f, S)])
        gR = conditional_expectation(aug, omega, [(f, R)])
        gS = conditional_expectation(aug, omega, [(f, S)])
        return joint.real, (gR * gS).real

    for omega in first_omegas(aug, code_partition_keys(aug)).values():
        joint, product = sides(omega)
        assert joint >= product - 1e-12


def test_condexp_cluster_product_bound_relaxed_class_field_free():
    # shifted staircase is in F_q only; bound holds on the support of phi
    # (ghost edges closed) when h == 0
    q = 3
    base = make_family("A", q).values
    f = SpinFunction(tuple(base[(x - 1) % q] for x in range(q)))
    model = path3(q=q)
    aug = augment(model)
    n_real = len(model.edges)
    for code in range(2**n_real):  # ghost bits stay 0
        bits = [(code >> i) & 1 for i in range(n_real)] + [0] * model.n_vertices
        joint = conditional_expectation(aug, bits, [(f, ("u",)), (f, ("w",))])
        gR = conditional_expectation(aug, bits, [(f, ("u",))])
        gS = conditional_expectation(aug, bits, [(f, ("w",))])
        assert joint.real >= (gR * gS).real - 1e-12


# ---------------------------------------------------------------------------
# disjoint-support factorization
# ---------------------------------------------------------------------------


def _factorization_holds_everywhere(model, f0, f1, R, S):
    aug = augment(model)

    def sides(omega):
        lhs = conditional_expectation(aug, omega, [(f0, R), (f1, S)])
        rhs = (
            event_Z(aug, omega, R, S)
            * conditional_expectation(aug, omega, [(f0, R)], include_ghost=True)
            * conditional_expectation(aug, omega, [(f1, S)], include_ghost=False)
        )
        return lhs, rhs

    for omega in first_omegas(aug, code_partition_keys(aug)).values():
        lhs, rhs = sides(omega)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_factorization_indicator_pair():
    model = path3(q=2, J=0.8, h=(0.3, 0.0, 1.1))
    f0 = SpinFunction((1.0, 0.0))
    f1 = SpinFunction((0.0, 1.0))
    _factorization_holds_everywhere(model, f0, f1, ("u",), ("w",))


def test_factorization_random_disjoint_pair():
    model = path3(q=4, J=0.6, h=(0.2, 0.9, 0.0))
    f0 = SpinFunction((0.9, 0.0, 0.4, 0.0))
    f1 = SpinFunction((0.0, 0.7, 0.0, 0.3))
    _factorization_holds_everywhere(model, f0, f1, ("u", "v"), ("v", "w"))


def test_factorization_ghost_contact_zeroed():
    # when S touches the ghost cluster, both sides vanish through 1_Z and
    # the f1(0) = 0 ghost factor respectively
    model = edge_model(q=2, h=(0.0, 1.0))
    aug = augment(model)
    f0 = SpinFunction((1.0, 0.0))
    f1 = SpinFunction((0.0, 1.0))
    omega = [0, 0, 1]  # ghost edge to v open, S = {v} touches the ghost
    assert event_Z(aug, omega, ("u",), ("v",)) == 0
    lhs = conditional_expectation(aug, omega, [(f0, ("u",)), (f1, ("v",))])
    assert lhs == 0j
    # the printed second factor omits the ghost term, so on its own it
    # need not vanish; the indicator does the zeroing
    f1_only = conditional_expectation(aug, omega, [(f1, ("v",))], include_ghost=False)
    assert f1_only == pytest.approx(1.0, abs=1e-15)
