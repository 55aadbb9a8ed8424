"""Core model: validation, weights, partition function, expectations."""

import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from potts_gks import (
    BadEdge,
    BadQ,
    BadRegion,
    EnumerationTooLarge,
    NegativeCoupling,
    NegativeField,
    PottsModel,
    SpinFunction,
    make_family,
    partition_function,
    potts_distribution,
    potts_expectation,
    potts_weight,
    validate_model,
)
from oracles import brute_expectation, brute_partition
from strategies import model_function_region, small_models

LN2 = math.log(2)
LN3 = math.log(3)


def edge_model(q=2, J=LN3, h=(0.0, 0.0)):
    return PottsModel(("u", "v"), (("u", "v"),), (J,), h, q)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_minimal_model_ok():
    m = PottsModel(("u",), (), (), (0.0,), 2)
    validate_model(m)


def test_self_loop_rejected():
    with pytest.raises(BadEdge):
        PottsModel(("u",), (("u", "u"),), (1.0,), (0.0,), 2)


def test_negative_coupling_rejected():
    with pytest.raises(NegativeCoupling):
        PottsModel(("u", "v"), (("u", "v"),), (-0.1,), (0.0, 0.0), 2)


def test_negative_field_rejected():
    with pytest.raises(NegativeField):
        PottsModel(("u",), (), (), (-0.5,), 2)


def test_bad_q_rejected():
    with pytest.raises(BadQ):
        PottsModel(("u",), (), (), (0.0,), 1)


def test_unknown_endpoint_rejected():
    with pytest.raises(BadEdge):
        PottsModel(("u", "v"), (("u", "w"),), (1.0,), (0.0, 0.0), 2)


def test_duplicate_edge_rejected():
    with pytest.raises(BadEdge):
        PottsModel(("u", "v"), (("u", "v"), ("v", "u")), (1.0, 1.0), (0.0, 0.0), 2)


def test_region_multiset_rejected():
    m = edge_model()
    f = make_family("A", 2)
    with pytest.raises(BadRegion):
        potts_expectation(m, [(f, ("u", "u"))])


def test_region_unknown_vertex_rejected():
    m = edge_model()
    f = make_family("A", 2)
    with pytest.raises(BadRegion):
        potts_expectation(m, [(f, ("w",))])


# ---------------------------------------------------------------------------
# weights and partition function
# ---------------------------------------------------------------------------


def test_weight_trivial_when_couplings_vanish():
    m = PottsModel(("u", "v"), (("u", "v"),), (0.0,), (0.0, 0.0), 3)
    for sigma in [(0, 0), (1, 2), (2, 2)]:
        assert potts_weight(m, sigma) == 1.0


def test_weight_single_edge():
    m = edge_model()
    assert potts_weight(m, (0, 0)) == pytest.approx(3.0, rel=1e-12)
    assert potts_weight(m, (1, 1)) == pytest.approx(3.0, rel=1e-12)
    assert potts_weight(m, (0, 1)) == pytest.approx(1.0, rel=1e-12)


def test_weight_single_vertex_field():
    m = PottsModel(("v",), (), (), (LN2,), 3)
    assert potts_weight(m, (0,)) == pytest.approx(2.0, rel=1e-12)
    assert potts_weight(m, (1,)) == pytest.approx(1.0, rel=1e-12)


def test_partition_single_edge():
    # frozen from the 4-state oracle sum: 3 + 1 + 1 + 3 = 8
    m = edge_model()
    assert brute_partition(m) == pytest.approx(8.0, rel=1e-12)
    assert partition_function(m) == pytest.approx(8.0, rel=1e-12)


def test_partition_single_vertex_field():
    # oracle: 2 + 1 + 1 = 4
    m = PottsModel(("v",), (), (), (LN2,), 3)
    assert brute_partition(m) == pytest.approx(4.0, rel=1e-12)
    assert partition_function(m) == pytest.approx(4.0, rel=1e-12)


def test_partition_free_case_counts_states():
    m = PottsModel(("u", "v"), (), (), (0.0, 0.0), 3)
    assert partition_function(m) == pytest.approx(9.0, rel=1e-14)


@given(small_models())
def test_partition_matches_oracle(model):
    z = partition_function(model)
    assert z == pytest.approx(brute_partition(model), rel=1e-12)
    # q^|V| states each weigh at least 1
    assert z >= model.n_states * (1 - 1e-12)


@given(small_models())
def test_distribution_normalized(model):
    pi = potts_distribution(model)
    assert np.all(pi >= 0)
    assert math.fsum(pi.tolist()) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


def test_expectation_empty_region_is_one():
    m = edge_model()
    f = make_family("A", 2)
    assert potts_expectation(m, [(f, ())]) == 1.0
    assert potts_expectation(m, []) == 1.0


def test_expectation_two_point_staircase():
    # oracle: (1/4 * 6 - 1/4 * 2) / 8 = 0.125
    m = edge_model()
    f = make_family("A", 2)
    factors = [(f, ("u",)), (f, ("v",))]
    assert brute_expectation(m, factors) == pytest.approx(0.125, abs=1e-12)
    assert potts_expectation(m, factors) == pytest.approx(0.125, abs=1e-12)


def test_expectation_indicator_pair():
    # single weight unit out of Z = 8
    m = edge_model()
    f0 = SpinFunction((1, 0))
    f1 = SpinFunction((0, 1))
    value = potts_expectation(m, [(f0, ("u",)), (f1, ("v",))])
    assert value == pytest.approx(0.125, abs=1e-12)


def test_expectation_free_case_factorizes():
    # independent uniform spins: <f^R> = (S_1/q)^|R|
    m = PottsModel(("a", "b", "c"), (), (), (0.0,) * 3, 3)
    f = SpinFunction((0.7, 0.2, 0.1))
    s1 = sum(f.values) / 3
    got = potts_expectation(m, [(f, ("a", "b", "c"))])
    assert got == pytest.approx(s1**3, abs=1e-13)


@given(model_function_region())
def test_expectation_matches_oracle(mfr):
    model, f, R = mfr
    got = potts_expectation(model, [(f, R)])
    want = brute_expectation(model, [(f, R)])
    assert got == pytest.approx(want, abs=1e-10)


@given(small_models(), st.integers(0, 3), st.complex_numbers(max_magnitude=2))
def test_constant_function_gives_power(model, r_size, c):
    f = SpinFunction((c,) * model.q)
    R = model.vertices[: min(r_size, model.n_vertices)]
    got = potts_expectation(model, [(f, R)])
    assert got == pytest.approx(c ** len(R), abs=1e-12)


@given(model_function_region(with_fields=False), st.randoms(use_true_random=False))
def test_relabeling_symmetry_without_field(mfr, py_random):
    # with h == 0 the measure is spin-symmetric, so composing f with any
    # relabeling of the local states leaves the mean unchanged
    model, f, R = mfr
    perm = list(range(model.q))
    py_random.shuffle(perm)
    g = SpinFunction(tuple(f.values[perm[x]] for x in range(model.q)))
    a = potts_expectation(model, [(f, R)])
    b = potts_expectation(model, [(g, R)])
    assert a == pytest.approx(b, abs=1e-12)


def test_field_saturation():
    # h == 30 pins every spin to 0
    m = PottsModel(("a", "b"), (("a", "b"),), (0.7,), (30.0, 30.0), 3)
    f = SpinFunction((0.9, 0.4, 0.1))
    got = potts_expectation(m, [(f, ("a", "b"))])
    assert abs(got - 0.9**2) <= 1e-9


def test_log_space_path_matches_analytic():
    # J = 700, near where e^J overflows a double; single edge analytic:
    # <delta_e> = e^J q / (e^J q + q(q-1)) = 1 / (1 + (q-1) e^{-J})
    m = edge_model(q=3, J=700.0, h=(0.0, 0.0))
    f_same = [(SpinFunction((1, 0, 0)), ("u",)), (SpinFunction((1, 0, 0)), ("v",))]
    # P(sigma_u = sigma_v = 0) at huge J: 1/q of the aligned mass
    got = potts_expectation(m, f_same)
    assert got == pytest.approx(1.0 / 3.0, rel=1e-9)


# ---------------------------------------------------------------------------
# enumeration cap
# ---------------------------------------------------------------------------


def test_log_partition_function():
    from potts_gks.model import log_partition_function

    m = edge_model()
    assert log_partition_function(m) == pytest.approx(math.log(8.0), abs=1e-12)
    # couplings far past float overflow: log Z = J + log(2 e^{-J} q ... ),
    # dominated by the two aligned states at weight e^J each
    big = edge_model(q=2, J=800.0)
    assert partition_function(big) == math.inf
    assert log_partition_function(big) == pytest.approx(800.0 + math.log(2), rel=1e-12)


def test_chunked_enumeration_large_tree():
    # 2^20 states, crossing many chunk boundaries; a tree has the closed
    # form Z = q * prod_e (e^{J_e} + q - 1)
    n = 20
    vertices = tuple(f"v{i}" for i in range(n))
    edges = tuple((f"v{i}", f"v{i+1}") for i in range(n - 1))
    m = PottsModel(vertices, edges, (0.8,) * (n - 1), (0.0,) * n, 2)
    want = 2.0 * (math.exp(0.8) + 1.0) ** (n - 1)
    assert partition_function(m) == pytest.approx(want, rel=1e-10)


def test_enumeration_cap_enforced():
    m = PottsModel(tuple(f"v{i}" for i in range(25)), (), (), (0.0,) * 25, 2)
    with pytest.raises(EnumerationTooLarge):
        partition_function(m)


def test_enumeration_cap_override():
    m = PottsModel(("u", "v"), (), (), (0.0, 0.0), 2)
    with pytest.raises(EnumerationTooLarge):
        partition_function(m, cap=3)
    assert partition_function(m, cap=4) == pytest.approx(4.0)


def test_enumeration_cap_env(monkeypatch):
    monkeypatch.setenv("POTTS_GKS_CAP", "3")
    m = PottsModel(("u", "v"), (), (), (0.0, 0.0), 2)
    with pytest.raises(EnumerationTooLarge):
        partition_function(m)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_json_round_trip():
    m = PottsModel(("u", "v", "w"), (("u", "v"), ("v", "w")), (1.5, 0.0), (0.25, 0.0, 1.0), 4)
    again = PottsModel.from_json_dict(m.to_json_dict())
    assert again == m


def test_json_missing_fields_default_to_zero():
    data = {"q": 2, "vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "J": 1.0}]}
    m = PottsModel.from_json_dict(data)
    assert m.h == (0.0, 0.0)
