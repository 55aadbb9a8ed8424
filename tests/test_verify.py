"""Inequality verifiers: margins, gating, and the fuzzing harness."""

import json
import math

import pytest
from hypothesis import given

from potts_gks import (
    FuzzConfig,
    NotCertified,
    NotDisjoint,
    PottsModel,
    SpinFunction,
    fuzz,
    make_family,
    potts_expectation,
    verify_disjoint_support,
    verify_gks_pair,
    verify_monotone,
    verify_real_nonneg,
)
from potts_gks import model as model_module
from potts_gks import verify as verify_module
from potts_gks.instances import verification_suite
from potts_gks.verify import report_to_json_dict
from strategies import model_function_region

LN2 = math.log(2)
LN3 = math.log(3)


def edge_model(q=2, J=LN3, h=(0.0, 0.0)):
    return PottsModel(("u", "v"), (("u", "v"),), (J,), h, q)


def shifted_staircase(q):
    base = make_family("A", q).values
    return SpinFunction(tuple(base[(x - 1) % q] for x in range(q)))


# ---------------------------------------------------------------------------
# realness / non-negativity
# ---------------------------------------------------------------------------


def test_real_nonneg_roots_of_unity_triangle():
    m = PottsModel(
        ("u", "v", "w"),
        (("u", "v"), ("v", "w"), ("u", "w")),
        (1.0, 1.0, 1.0),
        (0.0, 0.0, 0.0),
        3,
    )
    report = verify_real_nonneg(m, make_family("B", 3), ("u", "v"))
    assert report.verdict
    assert report.details["imag_residual"] <= 1e-12
    assert report.lhs.real >= -1e-12


def test_real_nonneg_empty_region():
    report = verify_real_nonneg(edge_model(), make_family("A", 2), ())
    assert report.verdict and report.lhs == 1.0


def test_real_nonneg_staircase_pair_value():
    report = verify_real_nonneg(edge_model(), make_family("A", 2), ("u", "v"))
    assert report.verdict
    assert report.lhs.real == pytest.approx(0.125, abs=1e-12)


def test_verdict_matches_margin_invariant():
    report = verify_real_nonneg(edge_model(), make_family("A", 2), ("u", "v"))
    assert report.verdict == (report.margin >= -report.tolerance)


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------


def test_monotone_field_raises_indicator_mean():
    # q = 3, single vertex: <delta_0> rises from 1/3 to 1/2 at h = ln 2
    m = PottsModel(("v",), (), (), (0.0,), 3)
    f = make_family("C", 3, (1.0, 0.0, 0.0))
    before = potts_expectation(m, [(f, ("v",))])
    after = potts_expectation(m.with_field(0, LN2), [(f, ("v",))])
    assert before.real == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert after.real == pytest.approx(0.5, abs=1e-12)
    report = verify_monotone(m, f, ("v",), "v")
    assert report.verdict and report.margin > 0


def test_monotone_constant_function_margin_zero():
    report = verify_monotone(edge_model(), SpinFunction((1.0, 1.0)), ("u",), ("u", "v"))
    assert report.verdict
    assert report.margin == 0.0


def test_monotone_coupling_covariance_positive():
    # frozen from the 4-state enumeration: cov(f^{uv}, delta_e) = 3/32
    report = verify_monotone(edge_model(), make_family("A", 2), ("u", "v"), ("u", "v"))
    assert report.verdict
    assert report.details["derivative"] == pytest.approx(3.0 / 32.0, abs=1e-12)


def test_monotone_two_criteria_agree_in_sign():
    m = PottsModel(
        ("a", "b", "c"),
        (("a", "b"), ("b", "c")),
        (0.7, 0.2),
        (0.1, 0.0, 0.4),
        4,
    )
    f = make_family("A", 4)
    for coord in list(m.edges) + list(m.vertices):
        report = verify_monotone(m, f, ("a", "c"), coord)
        assert report.verdict
        deriv = report.details["derivative"]
        for fd in report.details["finite_steps"].values():
            assert fd >= -1e-8
        assert deriv >= -1e-8


def test_monotone_derivative_matches_small_finite_difference():
    # the covariance route and a small-step secant must agree numerically
    m = PottsModel(
        ("a", "b", "c"), (("a", "b"), ("b", "c")), (0.7, 0.2), (0.1, 0.0, 0.4), 3
    )
    f = make_family("A", 3)
    R = ("a", "c")
    base = potts_expectation(m, [(f, R)]).real
    step = 1e-6
    report = verify_monotone(m, f, R, ("a", "b"))
    secant = (
        potts_expectation(m.with_coupling(0, m.J[0] + step), [(f, R)]).real - base
    ) / step
    assert report.details["derivative"] == pytest.approx(secant, rel=1e-4)
    report = verify_monotone(m, f, R, "c")
    secant = (
        potts_expectation(m.with_field(2, m.h[2] + step), [(f, R)]).real - base
    ) / step
    assert report.details["derivative"] == pytest.approx(secant, rel=1e-4)


def test_monotone_finite_steps_match_reenumeration():
    # the finite steps come from the base pass; re-enumerate the bumped model
    for model in verification_suite():
        q = model.q
        R = model.vertices[::2]
        for f in (make_family("A", q), make_family("B", q)):
            for coord in list(model.edges) + list(model.vertices):
                report = verify_monotone(model, f, R, coord)
                base = potts_expectation(model, [(f, R)])
                for step, got in report.details["finite_steps"].items():
                    if isinstance(coord, str):
                        i = model.vertex_index(coord)
                        bumped = model.with_field(i, model.h[i] + float(step))
                    else:
                        k = model.edge_position(*coord)
                        bumped = model.with_coupling(k, model.J[k] + float(step))
                    want = (potts_expectation(bumped, [(f, R)]) - base).real
                    assert got == pytest.approx(want, abs=1e-12)


def test_monotone_h_coordinate_requires_peak_class():
    # raising h leaves the field-free regime, so F_q alone cannot gate it
    m = PottsModel(("u", "v"), (("u", "v"),), (0.5,), (0.0, 0.0), 3)
    f = shifted_staircase(3)
    with pytest.raises(NotCertified):
        verify_monotone(m, f, ("u",), "u")
    # the J direction stays field-free and is covered by the relaxation
    assert verify_monotone(m, f, ("u",), ("u", "v")).verdict


# ---------------------------------------------------------------------------
# product correlation (GKS pair)
# ---------------------------------------------------------------------------


def test_gks_pair_staircase_single_edge():
    report = verify_gks_pair(edge_model(), make_family("A", 2), ("u",), ("v",))
    assert report.verdict
    assert report.margin == pytest.approx(0.125, abs=1e-12)
    assert report.rhs == 0.0


def test_gks_pair_empty_region_equality():
    report = verify_gks_pair(edge_model(), make_family("A", 2), (), ("v",))
    assert report.verdict
    assert abs(report.margin) <= 1e-12


def test_gks_pair_free_independence_equality():
    m = PottsModel(("u", "v"), (("u", "v"),), (0.0,), (0.0, 0.0), 3)
    report = verify_gks_pair(m, make_family("A", 3), ("u",), ("v",))
    assert report.verdict
    assert abs(report.margin) <= 1e-12


@given(model_function_region(max_n=4))
def test_gks_pair_never_negative(mfr):
    model, f, R = mfr
    S = model.vertices[::2]
    report = verify_gks_pair(model, f, R, S)
    assert report.verdict, (report.margin, report.details)


def test_gks_rejects_uncertified_function():
    with pytest.raises(NotCertified):
        verify_gks_pair(edge_model(), SpinFunction((1.0, -2.0)), ("u",), ("v",))


# ---------------------------------------------------------------------------
# disjoint support
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "claim, args",
    [
        (verify_monotone, (make_family("A", 3), ("u",), ("u", "v"))),
        (verify_monotone, (make_family("A", 3), ("u", "v"), "v")),
        (verify_gks_pair, (make_family("B", 3), ("u",), ("v",))),
        (verify_disjoint_support,
         (SpinFunction((1, 0, 0)), SpinFunction((0, 1, 0)), ("u",), ("v",))),
    ],
)
def test_each_claim_walks_the_states_once(monkeypatch, claim, args):
    passes = []
    walk = model_module.iter_state_blocks

    def counted(*a, **kw):
        passes.append(1)
        return walk(*a, **kw)

    monkeypatch.setattr(model_module, "iter_state_blocks", counted)
    assert claim(edge_model(q=3, h=(0.3, 0.0)), *args).verdict
    assert len(passes) == 1


def test_disjoint_indicator_pair_single_edge():
    # 1/8 on the left, (1/2)(1/2) on the right
    f0, f1 = SpinFunction((1.0, 0.0)), SpinFunction((0.0, 1.0))
    report = verify_disjoint_support(edge_model(), f0, f1, ("u",), ("v",))
    assert report.verdict
    assert report.lhs.real == pytest.approx(0.125, abs=1e-12)
    assert report.rhs.real == pytest.approx(0.25, abs=1e-12)
    assert report.margin == pytest.approx(0.125, abs=1e-12)


def test_disjoint_zero_function_equality():
    f0 = SpinFunction((1.0, 0.0))
    f1 = SpinFunction((0.0, 0.0))
    report = verify_disjoint_support(edge_model(), f0, f1, ("u",), ("v",))
    assert report.verdict
    assert report.lhs == 0.0 and report.rhs == 0.0


def test_disjoint_free_case_equality():
    m = PottsModel(("u", "v"), (("u", "v"),), (0.0,), (0.0, 0.0), 2)
    f0, f1 = SpinFunction((1.0, 0.0)), SpinFunction((0.0, 1.0))
    report = verify_disjoint_support(m, f0, f1, ("u",), ("v",))
    assert report.verdict
    assert abs(report.margin) <= 1e-12


def test_disjoint_rejects_overlapping_support():
    f0 = SpinFunction((1.0, 0.5))
    f1 = SpinFunction((0.0, 1.0))
    with pytest.raises(NotDisjoint):
        verify_disjoint_support(edge_model(), f0, f1, ("u",), ("v",))


def test_disjoint_second_function_needs_clean_moments():
    f0 = SpinFunction((1.0, 0.0, 0.0))
    f1 = SpinFunction((0.0, 1.0, -2.0))  # S_1 < 0
    with pytest.raises(NotCertified):
        verify_disjoint_support(edge_model(q=3), f0, f1, ("u",), ("v",))


# ---------------------------------------------------------------------------
# h == 0 relaxation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4])
def test_field_free_relaxation(q):
    f = shifted_staircase(q)
    m = PottsModel(
        ("a", "b", "c"),
        (("a", "b"), ("b", "c")),
        (0.9, 0.4),
        (0.0, 0.0, 0.0),
        q,
    )
    assert verify_real_nonneg(m, f, ("a", "c")).verdict
    assert verify_gks_pair(m, f, ("a",), ("c",)).verdict
    for edge in m.edges:
        assert verify_monotone(m, f, ("a", "c"), edge).verdict
    # the same function is rejected once a field is on
    with_field = PottsModel(m.vertices, m.edges, m.J, (0.5, 0.0, 0.0), q)
    with pytest.raises(NotCertified):
        verify_real_nonneg(with_field, f, ("a", "c"))


# ---------------------------------------------------------------------------
# fuzzer
# ---------------------------------------------------------------------------


def test_fuzz_zero_trials():
    result = fuzz(FuzzConfig(trials=0, seed=1))
    assert result.failures == [] and result.trials_run == 0


def test_fuzz_small_run_clean():
    result = fuzz(FuzzConfig(trials=200, seed=1234))
    assert result.failures == []
    assert result.trials_run == 200
    assert result.checks_run > 400


def test_fuzz_adversarial_functions_are_skipped():
    config = FuzzConfig(trials=60, seed=9, families=("adversarial",))
    result = fuzz(config)
    assert result.failures == []
    assert result.skipped_not_certified > 0


def test_fuzz_deterministic_replay():
    config = FuzzConfig(trials=120, seed=77)
    a, b = fuzz(config), fuzz(config)
    dump = lambda res: json.dumps(
        [report_to_json_dict(r) for r in res.failures] + [res.summary_dict()],
        sort_keys=True,
    )
    assert dump(a).encode() == dump(b).encode()
    assert a.checks_run == b.checks_run


def test_fuzz_extreme_couplings_and_fields_stay_finite(monkeypatch):
    # J and h up to 1e3: exp of the raw log-weights overflows a double
    reports = []
    for name in ("verify_real_nonneg", "verify_monotone", "verify_gks_pair",
                 "verify_disjoint_support"):
        check = getattr(verify_module, name)

        def collect(*args, _check=check, **kwargs):
            report = _check(*args, **kwargs)
            reports.append(report)
            return report

        monkeypatch.setattr(verify_module, name, collect)
    config = FuzzConfig(trials=150, seed=5, J_range=(0.0, 1e3), h_range=(0.0, 1e3))
    result = fuzz(config)
    assert result.failures == []
    assert len(reports) == result.checks_run > 300
    for report in reports:
        json.dumps(report_to_json_dict(report), allow_nan=False)


def test_fuzz_respects_cap():
    config = FuzzConfig(trials=40, seed=3, cap=8)  # q^n > 8 almost always
    result = fuzz(config)
    assert result.skipped_too_large > 0
