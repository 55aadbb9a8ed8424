"""Core model: validation, weights, partition function, expectations."""

import json
import math
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from potts_gks import (
    BadEdge,
    BadQ,
    BadRegion,
    EnumerationTooLarge,
    ModelError,
    NegativeCoupling,
    NegativeField,
    PottsModel,
    SpinFunction,
    make_family,
    partition_function,
    potts_distribution,
    potts_expectation,
    validate_model,
)
from potts_gks import model as model_module
from potts_gks.instances import torus_grid
from potts_gks.model import (
    _elimination_plan,
    _model_plan,
    default_cap,
    log_partition_function,
    region_indices,
    spin_means,
)
from oracles import brute_expectation, brute_partition, brute_weight
from strategies import certified_functions, model_function_region, regions, small_models

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


def test_region_indices_read_one_vertex_index():
    m = PottsModel(("c", "a", "b"), (("a", "b"),), (0.5,), (0.0,) * 3, 2)
    assert region_indices(m, ("b", "c")) == (2, 0)
    assert region_indices(m, iter(("a",))) == (1,)
    with pytest.raises(BadRegion, match="unknown vertex 'w'"):
        region_indices(m, ("a", "w", "x"))
    with pytest.raises(BadRegion, match=r"region \['a', 'a'\] repeats a vertex"):
        region_indices(m, ("a", "a"))
    for bad in ("w", ["a"], 0):
        with pytest.raises(BadRegion, match="unknown vertex"):
            m.vertex_index(bad)


def test_edge_position_reads_either_orientation():
    m = PottsModel(("c", "a", "b"), (("a", "b"), ("c", "b")), (0.5, 0.2), (0.0,) * 3, 2)
    assert [m.edge_position("a", "b"), m.edge_position("b", "a")] == [0, 0]
    assert [m.edge_position("c", "b"), m.edge_position("b", "c")] == [1, 1]
    assert m._edge_positions is m._edge_positions
    for u, v in (("a", "c"), ("a", "a"), ("a", "w")):
        with pytest.raises(BadEdge, match=f"^no edge <{u},{v}> in model$"):
            m.edge_position(u, v)


# ---------------------------------------------------------------------------
# weights and partition function
# ---------------------------------------------------------------------------


def _weights(m):
    """Every state's weight pi(sigma) Z, lexicographic as potts_distribution."""
    return potts_distribution(m) * partition_function(m)


def test_weight_trivial_when_couplings_vanish():
    m = PottsModel(("u", "v"), (("u", "v"),), (0.0,), (0.0, 0.0), 3)
    for sigma in [(0, 0), (1, 2), (2, 2)]:
        assert brute_weight(m, sigma) == 1.0
    assert _weights(m) == pytest.approx([1.0] * 9, rel=1e-12)


def test_weight_single_edge():
    m = edge_model()
    assert brute_weight(m, (0, 0)) == pytest.approx(3.0, rel=1e-12)
    assert brute_weight(m, (1, 1)) == pytest.approx(3.0, rel=1e-12)
    assert brute_weight(m, (0, 1)) == pytest.approx(1.0, rel=1e-12)
    assert _weights(m) == pytest.approx([3.0, 1.0, 1.0, 3.0], rel=1e-12)


def test_weight_single_vertex_field():
    m = PottsModel(("v",), (), (), (LN2,), 3)
    assert brute_weight(m, (0,)) == pytest.approx(2.0, rel=1e-12)
    assert brute_weight(m, (1,)) == pytest.approx(1.0, rel=1e-12)
    assert _weights(m) == pytest.approx([2.0, 1.0, 1.0], rel=1e-12)


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
    # entry k is the k-th state of itertools.product: sigma_0 most significant
    z = brute_partition(model)
    states = product(range(model.q), repeat=model.n_vertices)
    for got, sigma in zip(pi.tolist(), states, strict=True):
        assert got == pytest.approx(brute_weight(model, sigma) / z, rel=1e-12)
    assert potts_distribution(PottsModel((), (), (), (), model.q)).tolist() == [1.0]


def _broadcast_law(model):
    """The spin law as a product of broadcasts: a q^n array of ones times
    each site table in vertex order, then each pair table in edge order,
    the tables built from J and h here."""
    n, q = model.n_vertices, model.q
    law = np.ones((q,) * n)
    fields = np.exp(-np.asarray(model.h, dtype=float))
    for i in range(n):
        site = np.ones(q)
        site[1:] = fields[i]
        law *= site.reshape((q,) + (1,) * (n - 1 - i))
    couplings = np.exp(-np.asarray(model.J, dtype=float))
    for (a, b), x in zip(model.index_pairs, couplings):
        pair = np.full((q, q), x)
        np.fill_diagonal(pair, 1.0)
        a, b = sorted((a, b))  # a pair table is symmetric
        law *= pair.reshape((q,) + (1,) * (b - a - 1) + (q,) + (1,) * (n - 1 - b))
    law = law.ravel()
    return law / law.sum()


@st.composite
def scaled_models(draw):
    """n = 0..6, isolated vertices, edges in either orientation, and J and
    h up to 800, where e^{-J} and products of the tables underflow to 0."""
    n, q = draw(st.integers(0, 6)), draw(st.integers(2, 5))
    names = tuple(f"v{i}" for i in range(n))
    edges = tuple(
        (names[j], names[i]) if draw(st.booleans()) else (names[i], names[j])
        for i, j in combinations(range(n), 2)
        if draw(st.booleans())
    )
    scale = draw(st.sampled_from([1.0, 40.0, 800.0]))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    J = tuple(scale * draw(unit) for _ in edges)
    h = tuple(scale * draw(unit) * draw(st.booleans()) for _ in names)
    return PottsModel(names, edges, J, h, q)


def _complete_graph(n, q, J, h):
    names = tuple(f"v{i}" for i in range(n))
    return PottsModel(names, tuple(combinations(names, 2)),
                      (J,) * (n * (n - 1) // 2), (h,) * n, q)


@given(scaled_models())
@example(_complete_graph(9, 2, 0.3, 0.2))  # 45 tables: more than one einsum takes
@example(_complete_graph(8, 3, 400.0, 745.0))
def test_distribution_is_the_broadcast_product_bit_for_bit(model):
    assert potts_distribution(model).tobytes() == _broadcast_law(model).tobytes()


def test_shifted_tables_are_built_once_read_only_and_stay_out_of_eq_hash_and_repr():
    m = PottsModel(("b", "a", "c"), (("b", "a"), ("c", "a")), (0.5, 2.0),
                   (0.0, 1.5, 0.0), 3)
    twin = PottsModel(m.vertices, m.edges, m.J, m.h, m.q)
    assert "shifted_tables" not in vars(m)
    pi = potts_distribution(m)
    tables = site, pair = m.shifted_tables
    potts_expectation(m, [(make_family("A", 3), ("a", "c"))])
    spin_means(m, [([], ("c", "a")), ([], "a")])
    assert m.shifted_tables is tables  # the first call's build, read by every call
    e = math.exp
    assert site[:, 0].tolist() == [[1.0] * 3, [1.0, e(-1.5), e(-1.5)], [1.0] * 3]
    assert pair.shape == (2, 1, 3, 3)
    for table, J in zip(pair[:, 0], m.J):
        assert table.tolist() == [[1.0 if x == y else e(-J) for y in range(3)]
                                  for x in range(3)]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 0.5
    assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
    assert "shifted_tables" not in vars(twin)
    # a copy with new couplings builds its own tables and reads its own law
    other = replace(m, J=(0.5, 0.25))
    other_site, other_pair = other.shifted_tables
    assert other_site is not site and other_pair is not pair
    assert other_site.tobytes() == site.tobytes()
    assert other_pair[1, 0, 0, 1] == e(-0.25) != pair[1, 0, 0, 1]
    assert other_pair.tobytes() != pair.tobytes()
    assert potts_distribution(other).tobytes() == _broadcast_law(other).tobytes()
    assert potts_distribution(other).tobytes() != pi.tobytes()
    assert potts_distribution(m).tobytes() == pi.tobytes()


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
    # 2^20 states, a path: elimination keeps every table at 2^2 entries;
    # a tree has the closed form Z = q * prod_e (e^{J_e} + q - 1)
    n = 20
    vertices = tuple(f"v{i}" for i in range(n))
    edges = tuple((f"v{i}", f"v{i+1}") for i in range(n - 1))
    m = PottsModel(vertices, edges, (0.8,) * (n - 1), (0.0,) * n, 2)
    want = 2.0 * (math.exp(0.8) + 1.0) ** (n - 1)
    assert partition_function(m) == pytest.approx(want, rel=1e-10)


def test_enumeration_cap_enforced():
    # K26 at q = 2 has elimination width 25: a 2^26 x 1 table, past 2^24
    names = tuple(f"v{i}" for i in range(26))
    edges = tuple(combinations(names, 2))
    m = PottsModel(names, edges, (0.1,) * len(edges), (0.0,) * 26, 2)
    with pytest.raises(EnumerationTooLarge, match="width 25"):
        partition_function(m)


def test_cap_refuses_before_any_bucket_is_compiled(monkeypatch):
    # the cap is checked on the order's width: K26's 351-operand bucket is
    # never searched for pairs
    def compiled(*args):
        raise AssertionError("a bucket was compiled before the cap check")

    monkeypatch.setattr(model_module, "_bucket_pairs", compiled)
    _elimination_plan.cache_clear()
    names = tuple(f"v{i}" for i in range(26))
    edges = tuple(combinations(names, 2))
    m = PottsModel(names, edges, (0.1,) * len(edges), (0.0,) * 26, 2)
    with pytest.raises(EnumerationTooLarge, match="width 25"):
        partition_function(m)
    with pytest.raises(EnumerationTooLarge, match="width 25"):
        potts_expectation(m, [])


def test_index_pairs_are_built_once_and_stay_out_of_eq_and_hash():
    m = PottsModel(("a", "b", "c"), (("c", "a"), ("b", "c")), (0.5, 0.7), (0.0,) * 3, 3)
    twin = PottsModel(m.vertices, m.edges, m.J, m.h, m.q)
    assert m.index_pairs == ((2, 0), (1, 2))
    assert m.index_pairs is m.index_pairs
    assert m == twin and hash(m) == hash(twin)
    assert replace(m, J=(0.9, 0.7)).index_pairs == m.index_pairs


def test_json_texts_are_encoded_once_and_stay_out_of_eq_and_hash():
    m = PottsModel(("b", "a"), (("b", "a"),), (0.5,), (0.0, 1.5), 3)
    text = m.json_text
    assert text == json.dumps(m.to_json_dict(), sort_keys=True)
    assert m.json_text is text
    assert m == PottsModel(m.vertices, m.edges, m.J, m.h, m.q)
    assert hash(m) == hash(PottsModel(m.vertices, m.edges, m.J, m.h, m.q))
    f = SpinFunction((1.0, -0.5, 2j))
    assert f.json_text == "[[1.0, 0.0], [-0.5, 0.0], [0.0, 2.0]]"
    assert f.json_text is f.json_text
    assert f == SpinFunction(f.values) and hash(f) == hash(SpinFunction(f.values))


def test_field_free_flag_and_cached_hash_stay_out_of_eq_and_repr():
    m = PottsModel(("a", "b"), (("a", "b"),), (0.5,), (0.0, -0.0), 2)
    assert m.field_free and m.field_free is m.field_free
    assert not replace(m, h=(0.0, 0.25)).field_free
    assert m == PottsModel(m.vertices, m.edges, m.J, m.h, m.q)
    f = SpinFunction((0.5, -0.0))
    assert hash(f) == hash((f.values,)) == hash(SpinFunction((0.5, 0.0)))
    assert f == SpinFunction((0.5, 0.0))
    assert repr(f) == "SpinFunction(values=((0.5+0j), (-0+0j)))"


def zero_coupling_edge():
    # width 1 with one column (Z): the largest table holds 2^2 x 1 = 4 entries
    return PottsModel(("u", "v"), (("u", "v"),), (0.0,), (0.0, 0.0), 2)


def test_enumeration_cap_override():
    m = zero_coupling_edge()
    with pytest.raises(EnumerationTooLarge):
        partition_function(m, cap=3)
    assert partition_function(m, cap=4) == pytest.approx(4.0)


def test_enumeration_cap_env(monkeypatch):
    m = zero_coupling_edge()
    monkeypatch.setenv("POTTS_GKS_CAP", "3")
    with pytest.raises(EnumerationTooLarge):
        partition_function(m)
    monkeypatch.setenv("POTTS_GKS_CAP", "4")
    assert partition_function(m) == pytest.approx(4.0)
    monkeypatch.setenv("POTTS_GKS_CAP", "abc")
    with pytest.raises(ModelError, match="POTTS_GKS_CAP must be an integer, got 'abc'"):
        partition_function(m)


def test_cap_env_is_read_every_call_and_parsed_once_a_value(monkeypatch):
    parse = model_module._parse_cap
    parse.cache_clear()
    monkeypatch.setenv("POTTS_GKS_CAP", "12")
    assert [default_cap() for _ in range(3)] == [12, 12, 12]
    assert parse.cache_info().misses == 1
    monkeypatch.setenv("POTTS_GKS_CAP", "7")
    assert default_cap() == 7
    monkeypatch.delenv("POTTS_GKS_CAP")
    assert default_cap() == model_module.DEFAULT_STATE_CAP
    for raw, message in (("abc", "must be an integer, got 'abc'"),
                         ("0", "must be at least 1, got '0'")):
        monkeypatch.setenv("POTTS_GKS_CAP", raw)
        for _ in range(2):  # an error is raised again, not cached
            with pytest.raises(ModelError, match=f"POTTS_GKS_CAP {message}"):
                default_cap()


# ---------------------------------------------------------------------------
# exact means past the state cap, and every column kind
# ---------------------------------------------------------------------------


def test_cycle_partition_function_past_the_state_cap():
    # 3^40 states; transfer matrix of the field-free cycle:
    # Z = (e^J + q - 1)^n + (q - 1)(e^J - 1)^n
    n, q, J = 40, 3, 0.7
    names = tuple(f"v{i}" for i in range(n))
    edges = tuple((names[i], names[(i + 1) % n]) for i in range(n))
    m = PottsModel(names, edges, (J,) * n, (0.0,) * n, q)
    want = math.log((math.exp(J) + q - 1) ** n + (q - 1) * (math.exp(J) - 1) ** n)
    assert log_partition_function(m) == pytest.approx(want, abs=1e-12)


def test_star_with_more_operands_than_one_einsum_takes():
    # the last step sums out the centre and one leaf over 72 operands, 69 of
    # them messages from the other leaves; a tree has
    # Z = q prod_e (e^{J_e} + q - 1)
    leaves = tuple(f"v{i}" for i in range(1, 71))
    J = tuple(0.01 * i for i in range(70))
    m = PottsModel(("c", *leaves), tuple(("c", v) for v in leaves), J, (0.0,) * 71, 3)
    want = math.log(3) + math.fsum(math.log(math.exp(j) + 2) for j in J)
    assert log_partition_function(m) == pytest.approx(want, abs=1e-12)


def star(leaves=70, q=3):
    names = tuple(f"v{i}" for i in range(1, leaves + 1))
    J = tuple(0.01 * i for i in range(leaves))
    return PottsModel(("c", *names), tuple(("c", v) for v in names), J,
                      (0.0,) * (leaves + 1), q)


def complete_graph(n, q, J=0.4, h=0.3):
    names = tuple(f"v{i}" for i in range(n))
    edges = tuple(combinations(names, 2))
    return PottsModel(names, edges, tuple(J + 0.1 * k for k in range(len(edges))),
                      tuple(h * (i % 2) for i in range(n)), q)


# ---------------------------------------------------------------------------
# compiled plans: wide buckets open with two-operand steps
# ---------------------------------------------------------------------------


def assert_steps_within_width(plan):
    # a step's operands lie in its bucket, at most w + 1 vertices, and what
    # it makes has at most w: label 0 is the column axis, not a vertex. No
    # step takes more operands than numpy 1.x einsum iterates.
    for ids, subs, out in plan.steps:
        assert len(set().union(*subs) - {0}) <= plan.width + 1
        assert len(out) - 1 <= plan.width
        assert len(ids) <= model_module._EINSUM_OPERANDS


PLAN_CASES = {
    "3x3q4": lambda: torus_grid(3, 3, q=4, J=0.5, h=0.0),
    "5x5q3": lambda: torus_grid(5, 5, q=3, J=0.5, h=0.0),
    "6x6q3": lambda: torus_grid(6, 6, q=3, J=0.5, h=0.0),
    "star72": star,
    "K6q3": lambda: complete_graph(6, 3),
}


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_plan_steps_stay_within_the_width(case):
    assert_steps_within_width(_model_plan(PLAN_CASES[case]()))


@given(small_models(max_n=6, max_q=5))
def test_drawn_plan_steps_stay_within_the_width(model):
    assert_steps_within_width(_model_plan(model))


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_plans_are_deterministic(case):
    model = PLAN_CASES[case]()
    first = _model_plan(model)
    _elimination_plan.cache_clear()
    again = _model_plan(model)
    assert again is not first and again == first


@pytest.fixture
def unsplit(monkeypatch):
    """Plans whose every bucket is one einsum: an extra call costs too much."""

    def enter():
        monkeypatch.setattr(model_module, "_CALL_COST", 10**12)
        _elimination_plan.cache_clear()

    yield enter
    _elimination_plan.cache_clear()


def has_pairs(model):
    return any(len(ids) == 2 for ids, _, _ in _model_plan(model).steps)


def test_wide_buckets_split_into_pairs(unsplit):
    # at 3x3 q = 4 the pairwise steps cost less than the bucket einsums
    model = torus_grid(3, 3, q=4, J=0.5, h=0.0)
    assert has_pairs(model)
    unsplit()
    assert not has_pairs(model)


def test_split_plan_matches_oracle_on_k5():
    # K5 at q = 5 is one bucket of 15 operands, which the plan splits
    model = complete_graph(5, 5)
    assert has_pairs(model)
    q, (a, b, c) = 5, model.vertices[:3]
    real, complex_ = make_family("C", q, (0.9, 0.2, 0.5, 0.1, 0.3)), make_family("B", q)
    one = [SpinFunction(tuple(float(x == s) for x in range(q))) for s in range(q)]
    columns = [
        ([(real, (a, b))], None),
        ([(complex_, (a, c)), (real, (b,))], None),
        ([(complex_, (b,))], (a, c)),
        ([(real, (c,))], b),
        ((), (b, c)),
    ]
    wants = [
        brute_expectation(model, [(real, (a, b))]),
        brute_expectation(model, [(complex_, (a, c)), (real, (b,))]),
        sum(brute_expectation(model, [(complex_, (b,)), (e, (a,)), (e, (c,))]) for e in one),
        brute_expectation(model, [(real, (c,)), (one[0], (b,))]),
        sum(brute_expectation(model, [(e, (b,)), (e, (c,))]) for e in one),
    ]
    log_z, means = spin_means(model, columns)
    assert log_z == pytest.approx(math.log(brute_partition(model)), abs=1e-12)
    for got, want in zip(means, wants, strict=True):
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("shape", [(3, 3, 4), (4, 4, 3), (3, 4, 3)])
def test_split_plans_match_one_einsum_buckets(unsplit, shape):
    # the same means whichever way the buckets are contracted
    rows, cols, q = shape
    model = torus_grid(rows, cols, q=q, J=0.6, h=0.2)
    f = make_family("B", q)
    columns = [([(f, model.vertices[:2])], None), ([(f, model.vertices[3:5])], model.edges[2])]
    assert has_pairs(model)
    split = spin_means(model, columns)
    unsplit()
    whole = spin_means(model, columns)
    assert split[0] == pytest.approx(whole[0], abs=1e-12)
    for got, want in zip(split[1], whole[1], strict=True):
        assert abs(got - want) <= 1e-12


_small_complex = st.complex_numbers(
    max_magnitude=1, allow_nan=False, allow_infinity=False
)


@given(small_models(), st.data())
def test_every_column_kind_matches_oracle(model, data):
    # a coordinate column is the oracle with the delta folded into the
    # factors: [sigma_v == 0] is the indicator of 0 at v, and
    # [sigma_u == sigma_v] the sum over s of the indicator of s at u and v
    q = model.q
    f = SpinFunction(tuple(data.draw(st.lists(_small_complex, min_size=q, max_size=q))))
    g = data.draw(certified_functions(q))
    R, S = data.draw(regions(model)), data.draw(regions(model))
    v = data.draw(st.sampled_from(model.vertices))
    one = [SpinFunction(tuple(float(x == s) for x in range(q))) for s in range(q)]
    columns = [([(f, R)], None), ([(f, R), (g, S)], None), ([(g, S)], v)]
    wants = [
        brute_expectation(model, [(f, R)]),
        brute_expectation(model, [(f, R), (g, S)]),
        brute_expectation(model, [(g, S), (one[0], (v,))]),
    ]
    if model.edges:
        a, b = data.draw(st.sampled_from(model.edges))
        columns += [([(f, R)], (a, b)), ((), (a, b))]
        wants += [
            sum(brute_expectation(model, [(f, R), (e, (a,)), (e, (b,))]) for e in one),
            sum(brute_expectation(model, [(e, (a,)), (e, (b,))]) for e in one),
        ]
    log_z, means = spin_means(model, columns)
    assert log_z == pytest.approx(math.log(brute_partition(model)), abs=1e-12)
    for got, want in zip(means, wants, strict=True):
        assert abs(got - want) <= 1e-12


def count_region_indices(monkeypatch) -> list:
    calls = []
    index = model_module.region_indices

    def count(model, region):
        calls.append(tuple(region))
        return index(model, region)

    monkeypatch.setattr(model_module, "region_indices", count)
    return calls


def test_spin_means_indexes_each_function_and_region_once_per_call(monkeypatch):
    # the columns of a fuzz trial's gks_pair and disjoint_support claims, with
    # R once as a list and an equal copy of f, which is indexed on its own
    m = PottsModel(("a", "b", "c"), (("a", "b"), ("b", "c")), (0.5, 1.2), (0.3, 0.0, 0.7), 3)
    f, (f0, f1) = make_family("A", 3), (SpinFunction((1, 0, 0)), SpinFunction((0, 1, 0)))
    R, S = ("a", "c"), ("b",)
    twin = SpinFunction(f.values)
    columns = [([(f, R), (f, S)], None), ([(f, list(R))], None), ([(f, S)], None),
               ([(f0, R), (f1, S)], None), ([(f0, R)], "a"), ([(twin, R)], ("b", "a"))]
    calls = count_region_indices(monkeypatch)
    means = spin_means(m, columns)[1]
    assert sorted(calls) == sorted([R, S, R, S, R])
    calls.clear()
    alone = [spin_means(m, [column])[1][0] for column in columns]
    assert len(calls) == 8  # one per factor: each call indexes its own
    assert np.array(means).tobytes() == np.array(alone).tobytes()


def test_functions_apart_by_a_signed_zero_are_indexed_apart(monkeypatch):
    # SpinFunction equality merges -0.0 with 0.0; spin_means keys on identity
    m = PottsModel(("a", "b"), (("a", "b"),), (0.8,), (0.0, 0.4), 3)
    plus, minus = SpinFunction((1.0, 0.0, 0.5)), SpinFunction((1.0, -0.0, 0.5))
    assert plus == minus and hash(plus) == hash(minus)
    columns = [([(plus, ("a", "b"))], None), ([(minus, ("a", "b"))], "b"),
               ([(minus, ("a",))], None), ([(plus, ("a",))], ("a", "b"))]
    calls = count_region_indices(monkeypatch)
    means = spin_means(m, columns)[1]
    assert len(calls) == 4
    alone = [spin_means(m, [column])[1][0] for column in columns]
    assert np.array(means).tobytes() == np.array(alone).tobytes()


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


@pytest.mark.parametrize(
    "data",
    [
        {"q": 2, "vertices": [None, True, 1.5], "edges": [{"u": None, "v": True}]},
        {"q": 2, "vertices": ["a", 1]},
        {"q": 2, "vertices": ["a", "b"], "edges": [{"u": "a", "v": ["b"]}]},
    ],
)
def test_json_vertex_names_must_be_strings(data):
    # null, true and 1.5 used to become the vertices 'None', 'True', '1.5'
    with pytest.raises(ModelError, match="name must be a string"):
        PottsModel.from_json_dict(data)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def test_torus_names_stay_distinct_past_ten_rows():
    # unpadded, (1, 10) and (11, 0) were both s110
    big = torus_grid(12, 11, q=2, J=0.5, h=0.0)
    assert len(set(big.vertices)) == 132
    assert big.vertices[0] == "s0000" and big.vertices[-1] == "s1110"
    small = torus_grid(3, 3, q=2, J=0.5, h=0.0)
    assert small.vertices == tuple(f"s{r}{c}" for r in range(3) for c in range(3))
    assert ("s00", "s01") in small.edges
