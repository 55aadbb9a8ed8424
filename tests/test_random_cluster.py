"""Random-cluster representation: weights, coupling, conditional means."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from scipy import stats

from potts_gks import (
    PottsModel,
    SpinFunction,
    augment,
    cluster_moment_product,
    clusters,
    conditional_expectation,
    coupled_spin_marginal,
    event_Z,
    make_family,
    potts_distribution,
    potts_expectation,
    rc_distribution,
    rc_expectation,
    rc_probability,
    sample_spins,
)
from potts_gks import random_cluster
from potts_gks.random_cluster import (
    _P_MAX,
    _bond_partitions,
    _bond_weight_blocks,
    _group_partitions,
    _labels_from_bits,
    iter_bond_configs,
    omega_from_code,
    rc_partition,
    rc_weight,
)
from oracles import brute_coupled_marginal, brute_rc_weight
from strategies import model_function_region, small_models

LN2 = math.log(2)


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
    assert aug.ghost not in m.vertices
    assert aug.p[0] == pytest.approx(0.5, rel=1e-12)  # real edge, J = ln 2
    assert aug.p[1] == pytest.approx(0.5, rel=1e-12)  # ghost edge, h = ln 2
    assert aug.p[2] == 0.0  # h = 0 exactly


def test_augment_field_free_ghost_edges_are_dead():
    aug = augment(path3())
    assert aug.p[2:] == (0.0, 0.0, 0.0)


def test_augment_probability_stays_below_one():
    aug = augment(PottsModel(("v",), (), (), (50.0,), 2))
    assert 0.0 < aug.p[0] < 1.0


def test_ghost_name_avoids_collision():
    m = PottsModel(("g", "v"), (("g", "v"),), (1.0,), (0.0, 0.0), 2)
    aug = augment(m)
    assert aug.ghost not in m.vertices


# ---------------------------------------------------------------------------
# clusters
# ---------------------------------------------------------------------------


def test_clusters_all_closed():
    aug = augment(edge_model())
    part = clusters(aug, [0, 0, 0])
    assert part.ghost_cluster == ()
    assert part.other_clusters == (("u",), ("v",))
    assert part.k == 2


def test_clusters_single_ghost_bond():
    aug = augment(edge_model())
    part = clusters(aug, [0, 1, 0])  # ghost edge to u only
    assert part.ghost_cluster == ("u",)
    assert part.other_clusters == (("v",),)
    assert part.k == 1


def test_clusters_transitive_connectivity():
    aug = augment(edge_model())
    part = clusters(aug, [1, 0, 1])  # u-v open and ghost-v open
    assert part.ghost_cluster == ("u", "v")
    assert part.k == 0


@given(small_models(max_n=4))
def test_clusters_partition_vertices(model):
    # every bond configuration: parts are disjoint, non-empty, cover V,
    # and match BFS components of the open subgraph
    from oracles import bfs_components

    aug = augment(model)
    for code in range(0, 2**aug.n_bonds, 7):  # stride keeps examples fast
        omega = omega_from_code(aug, code)
        part = clusters(aug, omega)
        pieces = [part.ghost_cluster] if part.ghost_cluster else []
        pieces += list(part.other_clusters)
        assert all(pieces[i] for i in range(len(pieces)))
        flat = [v for piece in pieces for v in piece]
        assert sorted(flat) == sorted(model.vertices)
        assert part.k == len(part.other_clusters)
        comps = bfs_components(aug.n_vertices + 1, zip(aug.edge_index, omega))
        ghost_comp = next(c for c in comps if aug.ghost_index in c)
        want_ghost = tuple(
            model.vertices[i] for i in sorted(ghost_comp) if i < aug.n_vertices
        )
        assert part.ghost_cluster == want_ghost


def test_omega_code_round_trip():
    aug = augment(path3())
    for code in range(2**aug.n_bonds):
        omega = omega_from_code(aug, code)
        assert sum(int(b) << i for i, b in enumerate(omega)) == code


# ---------------------------------------------------------------------------
# random-cluster measure
# ---------------------------------------------------------------------------


def test_single_edge_open_probability():
    # p = 1/2, q = 2: phi(open) = p / (p + (1-p) q) = 1/3
    aug = augment(edge_model())
    dist = rc_distribution(aug)
    open_mass = sum(dist[code] for code in range(8) if code & 1)
    assert open_mass == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_zero_probability_bonds_never_open():
    aug = augment(edge_model())  # ghost edges have p = 0
    dist = rc_distribution(aug)
    for code in range(8):
        if code & 0b110:
            assert dist[code] == 0.0


def test_all_closed_certain_when_free():
    aug = augment(PottsModel(("u", "v"), (("u", "v"),), (0.0,), (0.0, 0.0), 2))
    dist = rc_distribution(aug)
    assert dist[0] == pytest.approx(1.0, abs=1e-15)


@given(small_models(max_n=3))
def test_rc_distribution_normalized(model):
    dist = rc_distribution(augment(model))
    assert math.fsum(dist.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert np.all(dist >= 0)


@given(small_models(max_n=3))
def test_rc_weight_matches_bfs_oracle(model):
    aug = augment(model)
    for code in range(2**aug.n_bonds):
        omega = omega_from_code(aug, code)
        assert rc_weight(aug, omega) == pytest.approx(
            brute_rc_weight(aug, omega), rel=1e-12
        )


def test_rc_probability_single_config():
    aug = augment(edge_model())
    assert rc_probability(aug, [1, 0, 0]) == pytest.approx(1.0 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the block reducer
# ---------------------------------------------------------------------------


@given(small_models(max_n=4))
def test_bond_blocks_match_per_config_labels_and_weights(model):
    # blocks of 2^3 codes, so most models cross several blocks
    aug = augment(model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random_cluster, "_BOND_BLOCK", 1 << 3)
        blocks = list(_bond_weight_blocks(aug))
        parts = _bond_partitions(aug)
    assert all(len(w) <= 8 for _, w in blocks)
    labels = np.concatenate([lab for lab, _ in blocks])
    weights = np.concatenate([w for _, w in blocks])
    assert labels.shape == (2**aug.n_bonds, aug.n_vertices + 1)
    by_partition = {}
    for code in range(2**aug.n_bonds):
        omega = omega_from_code(aug, code)
        want = _labels_from_bits(aug, omega)
        assert labels[code].tolist() == want
        assert weights[code] == pytest.approx(brute_rc_weight(aug, omega), rel=1e-12)
        key = tuple(want)
        by_partition[key] = by_partition.get(key, 0.0) + weights[code]
    got = {tuple(row): w for row, w in zip(parts[0].tolist(), parts[1].tolist())}
    assert len(got) == parts[0].shape[0]
    assert got.keys() == {k for k, w in by_partition.items() if w > 0}
    for key, w in got.items():
        assert w == pytest.approx(by_partition[key], rel=1e-12)


@pytest.mark.parametrize("n1", [6, 20, 21, 25])
def test_partition_grouping_on_wide_label_rows(n1):
    # rows up to 20 nodes are keyed by sum_i labels[i] * i!, wider ones by
    # their bytes; both must group exactly like the rows themselves
    rng = np.random.default_rng(n1)
    nodes = np.arange(n1)
    rows = np.minimum(rng.integers(0, n1, size=(200, n1)), nodes)
    rows[:, -1] = rng.choice([0, n1 - 1], size=200)  # the largest key digit
    rows = rows[rng.integers(0, 200, size=600)].astype(np.int8)
    weights = rng.random(600)
    labels, sums = _group_partitions(rows, weights)
    want = {}
    for row, w in zip(rows.tolist(), weights.tolist()):
        want[tuple(row)] = want.get(tuple(row), 0.0) + w
    got = {tuple(row): w for row, w in zip(labels.tolist(), sums.tolist())}
    assert len(got) == labels.shape[0] == len(want)
    for key, w in want.items():
        assert got[key] == pytest.approx(w, rel=1e-12)


def test_reducer_past_one_block_matches_per_code_sums():
    # 6 vertices and 11 edges: 17 bonds, two blocks at the default size
    names = "abcdef"
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (2, 5), (3, 4),
             (3, 5), (4, 5), (0, 5)]
    model = PottsModel(
        tuple(names),
        tuple((names[i], names[j]) for i, j in pairs),
        tuple(0.2 + 0.1 * i for i in range(len(pairs))),
        (0.3, 0.0, 0.7, 0.0, 0.0, 1.1),
        2,
    )
    aug = augment(model)
    assert 2**aug.n_bonds == 2 * random_cluster._BOND_BLOCK
    # P(sigma = 000111) as a product of indicator factors
    factors = [(SpinFunction((1, 0)), ("a", "b", "c")),
               (SpinFunction((0, 1)), ("d", "e", "f"))]
    weights, terms = [], []
    for code in range(2**aug.n_bonds):
        omega = omega_from_code(aug, code).tolist()
        w = rc_weight(aug, omega)
        weights.append(w)
        terms.append(w * conditional_expectation(aug, omega, factors).real)
    z = math.fsum(weights)
    want = math.fsum(terms) / z
    assert rc_partition(aug) == pytest.approx(z, rel=1e-12)
    assert abs(rc_expectation(aug, factors) - want) <= 1e-12
    assert abs(coupled_spin_marginal(aug)[0b000111] - want) <= 1e-12


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
        dist = rc_distribution(aug)
        marginal = coupled_spin_marginal(aug)
        pi = potts_distribution(model)
        lhs = rc_expectation(aug, [(f, R)])
        rhs = potts_expectation(model, [(f, R)])
    assert np.all(np.isfinite(dist))
    assert abs(math.fsum(dist.tolist()) - 1.0) <= 1e-12
    assert 0.5 * float(np.sum(np.abs(marginal - pi))) <= 1e-10
    assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# cluster-spin coupling
# ---------------------------------------------------------------------------


def test_sample_spins_ghost_cluster_is_zero():
    aug = augment(edge_model(h=(1.0, 1.0)))
    rng = np.random.default_rng(7)
    spins = sample_spins(aug, [0, 1, 1], rng)
    assert np.all(spins == 0)


def test_sample_spins_monochromatic_cluster():
    aug = augment(edge_model(q=5))
    rng = np.random.default_rng(11)
    for _ in range(50):
        spins = sample_spins(aug, [1, 0, 0], rng)
        assert spins[0] == spins[1]


def test_sample_spins_uniform_chi2():
    aug = augment(PottsModel(("v",), (), (), (0.0,), 2))
    rng = np.random.default_rng(3)
    draws = np.array([sample_spins(aug, [0], rng)[0] for _ in range(10_000)])
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


def _monotone_on_bond_lattice(model, f, R):
    aug = augment(model)
    values = {}
    for code, bits, labels in iter_bond_configs(aug):
        values[code] = conditional_expectation(aug, bits, [(f, R)])
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
    for _, bits, _ in iter_bond_configs(aug):
        joint = conditional_expectation(aug, bits, [(f, R), (f, S)])
        gR = conditional_expectation(aug, bits, [(f, R)])
        gS = conditional_expectation(aug, bits, [(f, S)])
        assert joint.real >= (gR * gS).real - 1e-12


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
    for _, bits, _ in iter_bond_configs(aug):
        lhs = conditional_expectation(aug, bits, [(f0, R), (f1, S)])
        rhs = (
            event_Z(aug, bits, R, S)
            * cluster_moment_product(aug, bits, f0, R, include_ghost=True)
            * cluster_moment_product(aug, bits, f1, S, include_ghost=False)
        )
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
    f1_only = cluster_moment_product(aug, omega, f1, ("v",), include_ghost=False)
    assert f1_only == pytest.approx(1.0, abs=1e-15)
