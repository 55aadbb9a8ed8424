"""Core model: validation, weights, partition function, expectations."""

import gc
import inspect
import math
import tracemalloc
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from potts_gks import (
    EnumerationTooLarge,
    ModelError,
    PottsModel,
    SpinFunction,
    log_partition_function,
    make_family,
    potts_distribution,
    potts_expectation,
)
import potts_gks
from potts_gks import cli, random_cluster, verify
from potts_gks import model as model_module
from potts_gks.instances import torus_grid
from potts_gks.model import (
    DEFAULT_STATE_CAP,
    _elimination_order,
    _elimination_plan,
    _model_plan,
    _pair_steps,
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
    # construction runs the validation: a model that exists is valid
    m = PottsModel(("u",), (), (), (0.0,), 2)
    assert (m.vertices, m.edges, m.J, m.h, m.q) == (("u",), (), (), (0.0,), 2)


def test_self_loop_rejected():
    with pytest.raises(ModelError, match="self-loop <u,u>"):
        PottsModel(("u",), (("u", "u"),), (1.0,), (0.0,), 2)


def test_negative_coupling_rejected():
    with pytest.raises(ModelError, match=r"couplings must be finite and >= 0, got -0\.1"):
        PottsModel(("u", "v"), (("u", "v"),), (-0.1,), (0.0, 0.0), 2)


def test_negative_field_rejected():
    with pytest.raises(ModelError, match=r"fields must be finite and >= 0, got -0\.5"):
        PottsModel(("u",), (), (), (-0.5,), 2)


def test_bad_q_rejected():
    with pytest.raises(ModelError, match=r"q must be >= 2, got 1"):
        PottsModel(("u",), (), (), (0.0,), 1)
    with pytest.raises(ModelError, match=r"spin function needs q >= 2 values, got 1"):
        SpinFunction((1.0,))


@pytest.mark.parametrize("q", [2.5, "3", True], ids=["2.5", "str-3", "True"])
def test_a_q_that_is_not_an_integer_is_refused_at_construction(q):
    # q=2.5 used to build a model whose log partition function raised a bare
    # TypeError, and q="3" a TypeError from the comparison with 2
    with pytest.raises(ModelError, match=rf"^q must be an integer, got {q!r}$"):
        PottsModel(("u",), (), (), (0.0,), q)


def test_unknown_endpoint_rejected():
    with pytest.raises(ModelError, match="edge <u,w> uses unknown vertex"):
        PottsModel(("u", "v"), (("u", "w"),), (1.0,), (0.0, 0.0), 2)


def test_duplicate_edge_rejected():
    with pytest.raises(ModelError, match="duplicate edge <v,u>"):
        PottsModel(("u", "v"), (("u", "v"), ("v", "u")), (1.0, 1.0), (0.0, 0.0), 2)


@pytest.mark.parametrize(
    "vertices, edges, J, h, message",
    [
        (("u", "v"), (("u", "v"),), (), (0.0, 0.0), "J must align with the edge list"),
        (("u", "v"), (("u", "v"),), (1.0,), (0.0,), "h must align with the vertex list"),
        (("u", "u"), (), (), (0.0, 0.0), "duplicate vertex id"),
    ],
    ids=["J", "h", "vertex"],
)
def test_misaligned_tables_and_duplicate_vertices_rejected(vertices, edges, J, h, message):
    # none of these is a bad edge or a negative field: the base class itself
    with pytest.raises(ModelError, match=message) as exc:
        PottsModel(vertices, edges, J, h, 2)
    assert type(exc.value) is ModelError


def test_package_exports_three_exception_classes():
    # malformed input, a hypothesis that fails, and a sum past the cap: the
    # three answers besides a report that a caller acts on differently
    exported = {name for name, value in vars(potts_gks).items()
                if isinstance(value, type) and issubclass(value, BaseException)}
    assert exported == {"ModelError", "NotCertified", "EnumerationTooLarge"}


def test_region_multiset_rejected():
    m = edge_model()
    f = make_family("A", 2)
    with pytest.raises(ModelError, match=r"region \['u', 'u'\] repeats a vertex"):
        potts_expectation(m, [(f, ("u", "u"))])


def test_region_unknown_vertex_rejected():
    m = edge_model()
    f = make_family("A", 2)
    with pytest.raises(ModelError, match="unknown vertex 'w'"):
        potts_expectation(m, [(f, ("w",))])


def test_region_indices_read_one_vertex_index():
    m = PottsModel(("c", "a", "b"), (("a", "b"),), (0.5,), (0.0,) * 3, 2)
    assert region_indices(m, ("b", "c")) == (2, 0)
    assert region_indices(m, iter(("a",))) == (1,)
    with pytest.raises(ModelError, match="unknown vertex 'w'"):
        region_indices(m, ("a", "w", "x"))
    with pytest.raises(ModelError, match=r"region \['a', 'a'\] repeats a vertex"):
        region_indices(m, ("a", "a"))
    for bad in ("w", ["a"], 0):
        with pytest.raises(ModelError, match="unknown vertex"):
            m.vertex_index(bad)


def test_edge_position_reads_either_orientation():
    m = PottsModel(("c", "a", "b"), (("a", "b"), ("c", "b")), (0.5, 0.2), (0.0,) * 3, 2)
    assert [m.edge_position("a", "b"), m.edge_position("b", "a")] == [0, 0]
    assert [m.edge_position("c", "b"), m.edge_position("b", "c")] == [1, 1]
    assert m._edge_positions is m._edge_positions
    for u, v in (("a", "c"), ("a", "a"), ("a", "w")):
        with pytest.raises(ModelError, match=f"^no edge <{u},{v}> in model$"):
            m.edge_position(u, v)


# ---------------------------------------------------------------------------
# weights and partition function
# ---------------------------------------------------------------------------


def _weights(m):
    """Every state's weight pi(sigma) Z, lexicographic as potts_distribution."""
    return potts_distribution(m) * math.exp(log_partition_function(m))


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
    assert math.exp(log_partition_function(m)) == pytest.approx(8.0, rel=1e-12)


def test_partition_single_vertex_field():
    # oracle: 2 + 1 + 1 = 4
    m = PottsModel(("v",), (), (), (LN2,), 3)
    assert brute_partition(m) == pytest.approx(4.0, rel=1e-12)
    assert math.exp(log_partition_function(m)) == pytest.approx(4.0, rel=1e-12)


def test_partition_free_case_counts_states():
    m = PottsModel(("u", "v"), (), (), (0.0, 0.0), 3)
    assert math.exp(log_partition_function(m)) == pytest.approx(9.0, rel=1e-14)


@given(small_models())
def test_partition_matches_oracle(model):
    z = math.exp(log_partition_function(model))
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
    m = edge_model()
    assert log_partition_function(m) == pytest.approx(math.log(8.0), abs=1e-12)
    # couplings far past float overflow: log Z = J + log(2 e^{-J} q ... ),
    # dominated by the two aligned states at weight e^J each
    big = edge_model(q=2, J=800.0)
    assert log_partition_function(big) == pytest.approx(800.0 + math.log(2), rel=1e-12)


def test_chunked_enumeration_large_tree():
    # 2^20 states, a path: elimination keeps every table at 2^2 entries;
    # a tree has the closed form Z = q * prod_e (e^{J_e} + q - 1)
    n = 20
    vertices = tuple(f"v{i}" for i in range(n))
    edges = tuple((f"v{i}", f"v{i+1}") for i in range(n - 1))
    m = PottsModel(vertices, edges, (0.8,) * (n - 1), (0.0,) * n, 2)
    want = 2.0 * (math.exp(0.8) + 1.0) ** (n - 1)
    assert math.exp(log_partition_function(m)) == pytest.approx(want, rel=1e-10)


def test_enumeration_cap_enforced():
    # K26 at q = 2 has elimination width 25: a 2^26 x 1 table, past 2^24
    names = tuple(f"v{i}" for i in range(26))
    edges = tuple(combinations(names, 2))
    m = PottsModel(names, edges, (0.1,) * len(edges), (0.0,) * 26, 2)
    with pytest.raises(EnumerationTooLarge, match="width 25"):
        log_partition_function(m)


def test_cap_refuses_before_any_bucket_is_compiled(monkeypatch):
    # the cap is checked on the order's width: K26's 351-operand bucket is
    # never searched for pairs
    def compiled(*args):
        raise AssertionError("a bucket was compiled before the cap check")

    monkeypatch.setattr(model_module, "_bucket_pairs", compiled)
    _elimination_plan.cache_clear()
    _pair_steps.cache_clear()
    names = tuple(f"v{i}" for i in range(26))
    edges = tuple(combinations(names, 2))
    m = PottsModel(names, edges, (0.1,) * len(edges), (0.0,) * 26, 2)
    with pytest.raises(EnumerationTooLarge, match="width 25"):
        log_partition_function(m)
    with pytest.raises(EnumerationTooLarge, match="width 25"):
        potts_expectation(m, [])


def test_index_pairs_are_built_once_and_stay_out_of_eq_and_hash():
    m = PottsModel(("a", "b", "c"), (("c", "a"), ("b", "c")), (0.5, 0.7), (0.0,) * 3, 3)
    twin = PottsModel(m.vertices, m.edges, m.J, m.h, m.q)
    assert m.index_pairs == ((2, 0), (1, 2))
    assert m.index_pairs is m.index_pairs
    assert m == twin and hash(m) == hash(twin)
    assert replace(m, J=(0.9, 0.7)).index_pairs == m.index_pairs


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
        log_partition_function(m, cap=3)
    assert math.exp(log_partition_function(m, cap=4)) == pytest.approx(4.0)


def test_every_cap_defaults_to_the_state_cap(monkeypatch):
    # a cap reaches the engines only as an argument, one setter per layer
    routines = {name: fn for module in (model_module, random_cluster, verify)
                for name, fn in vars(module).items()
                if not name.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and "cap" in inspect.signature(fn).parameters}
    assert sorted(routines) == [
        "coupled_spin_marginal", "log_partition_function", "potts_distribution",
        "potts_expectation", "rc_expectation", "rc_partition", "rc_probability",
        "spin_means", "verify_disjoint_support", "verify_gks_pair", "verify_monotone",
        "verify_real_nonneg",
    ]
    for name, fn in routines.items():
        assert inspect.signature(fn).parameters["cap"].default == DEFAULT_STATE_CAP, name
    assert verify.FuzzConfig(trials=0, seed=0).cap == DEFAULT_STATE_CAP
    parser = cli.build_parser()
    commands = [["exact"], ["rc"], ["fuzz", "--trials", "1", "--seed", "1"]]
    commands += [["verify", claim, "--f", "A"] for claim in cli._CLAIMS]
    for argv in commands:
        model = [] if argv[0] == "fuzz" else ["--model", "m.json"]
        assert parser.parse_args(argv + model).cap == DEFAULT_STATE_CAP, argv
    # the environment sets no cap
    monkeypatch.setenv("POTTS_GKS_CAP", "3")
    assert math.exp(log_partition_function(zero_coupling_edge())) == pytest.approx(4.0)


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


def fuzz_plan_keys():
    """Every (n, pairs, q) key the default fuzzer can draw: each labelled
    graph on 1..5 vertices, its edges in lexicographic order, at q = 2..5."""
    for n in range(1, 6):
        candidates = list(combinations(range(n), 2))
        for code in range(1 << len(candidates)):
            pairs = tuple(e for i, e in enumerate(candidates) if code >> i & 1)
            for q in (2, 3, 4, 5):
                yield n, pairs, q


def test_every_fuzz_plan_is_held_at_once(monkeypatch):
    # all 4,396 keys fit the memo, their tuples shared, and the split search
    # memo keyed by masks compiles each plan as the search run afresh does
    keys = list(fuzz_plan_keys())
    assert len(keys) == 4396
    memos = (_elimination_plan, _elimination_order, _pair_steps)
    for memo in memos:
        memo.cache_clear()
    model_module._INTERNED.clear()
    tracemalloc.start()
    try:
        plans = [_elimination_plan(*key) for key in keys]
        gc.collect()  # a full collection empties the free lists of spent tuples
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _elimination_plan.cache_info().currsize == 4396
    assert _elimination_order.cache_info().currsize == 1099
    assert held <= 2.5 * 2**20
    for memo in memos:
        memo.cache_clear()
    monkeypatch.setattr(model_module, "_pair_steps", _pair_steps.__wrapped__)
    assert [_elimination_plan(*key) for key in keys] == plans
    _elimination_plan.cache_clear()


def test_plans_of_one_graph_share_their_tuples():
    # the path a-b-c at q = 2 and q = 3 compiles to equal steps, held once;
    # a recompile after the memo is emptied returns the same objects again
    models = [PottsModel(("a", "b", "c"), (("a", "b"), ("b", "c")), (0.5, 0.7),
                         (0.0,) * 3, q) for q in (2, 3)]
    assert models[0].index_pairs is models[1].index_pairs
    two, three = map(_model_plan, models)
    assert two is not three and two.steps is three.steps
    assert two.roots is three.roots
    _elimination_plan.cache_clear()
    again = _model_plan(models[0])
    assert again is not two
    assert all(a is b for a, b in zip(again.steps, two.steps, strict=True))


@pytest.fixture
def unsplit(monkeypatch):
    """Plans whose every bucket is one einsum: an extra call costs too much."""

    def enter():
        monkeypatch.setattr(model_module, "_CALL_COST", 10**12)
        _elimination_plan.cache_clear()
        _pair_steps.cache_clear()

    yield enter
    # the split search reads _CALL_COST: no memo may keep what it found here
    _elimination_plan.cache_clear()
    _pair_steps.cache_clear()


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
