"""Inequality verifiers: margins, gating, and the fuzzing harness."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given

from potts_gks import (
    BadEdge,
    EnumerationTooLarge,
    FuzzConfig,
    ModelError,
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
from potts_gks.instances import random_model, verification_suite
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


INDICATORS = (SpinFunction((1.0, 0.0)), SpinFunction((0.0, 1.0)))
CLAIM_IDS = ["real_nonneg", "monotone", "gks_pair", "disjoint_support"]
CLAIM_CASES = [
    (verify_real_nonneg, (make_family("A", 2), ("u", "v"))),
    (verify_monotone, (make_family("A", 2), ("u", "v"), ("u", "v"))),
    (verify_gks_pair, (make_family("A", 2), ("u",), ("v",))),
    (verify_disjoint_support, (*INDICATORS, ("u",), ("v",))),
]


@pytest.mark.parametrize(
    "claim, args",
    CLAIM_CASES,
    ids=CLAIM_IDS,
)
def test_verdict_matches_margin_invariant(claim, args):
    report = claim(edge_model(), *args)
    assert report.verdict == (report.margin >= -report.tolerance)


@pytest.mark.parametrize(
    "claim, args, means",
    [
        (verify_real_nonneg, (make_family("A", 2), ("u",)), [0.5 + 1e-6j]),
        (verify_monotone, (make_family("A", 2), ("u",), ("u", "v")),
         [0.5, 0.5 + 1e-6j, 0.5]),
        (verify_gks_pair, (make_family("A", 2), ("u",), ("v",)), [0.5 + 1e-6j, 0.5, 0.5]),
        (verify_disjoint_support, (*INDICATORS, ("u",), ("v",)), [0.1 + 1e-6j, 0.5, 0.5]),
    ],
    ids=CLAIM_IDS,
)
def test_imaginary_residual_fails_a_passing_real_slack(monkeypatch, claim, args, means):
    # every real slack is 0.02 or more (0.5, 0.025, 0.25, 0.15), so only the
    # 1e-6 imaginary part of a mean, above the 1e-8 tolerance, fails the claim
    monkeypatch.setattr(verify_module, "spin_means", lambda *a: (0.0, means))
    report = claim(edge_model(), *args)
    assert report.details["imag_residual"] == 1e-6
    assert report.verdict is False
    assert report.margin == -1e-6
    means = [m.real for m in means]  # the stub returns the rebound list
    report = claim(edge_model(), *args)
    assert report.verdict is True and report.margin > 0.02


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


@pytest.mark.parametrize("coordinate", [("u", "v", "u"), ("u",), 3, None])
def test_monotone_malformed_coordinate_is_bad_edge(coordinate):
    # a 3-tuple used to reach edge_position and raise a bare TypeError
    with pytest.raises(BadEdge, match="a coordinate is a vertex name or a"):
        verify_monotone(edge_model(), make_family("A", 2), ("u",), coordinate)


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


def test_failed_certification_is_raised_on_every_call():
    # the membership report is memoized; the refusal must not be
    f = SpinFunction((1.0, -2.0))
    for _ in range(3):
        with pytest.raises(NotCertified) as exc:
            verify_gks_pair(edge_model(), f, ("u",), ("v",))
        assert exc.value.report.first_violation[:2] == (1, 0)
    peaked_off_zero = shifted_staircase(3)
    m = edge_model(q=3, h=(0.5, 0.0))
    for _ in range(3):
        with pytest.raises(NotCertified):
            verify_real_nonneg(m, peaked_off_zero, ("u",))


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
    # one elimination sums every column over all states
    passes = []
    eliminate = model_module._eliminate

    def counted(*a, **kw):
        passes.append(1)
        return eliminate(*a, **kw)

    monkeypatch.setattr(model_module, "_eliminate", counted)
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


def record_reports(monkeypatch) -> list:
    """Hook verify._report, which builds every report the fuzzer checks."""
    reports = []
    build = verify_module._report

    def record(*args, **kwargs):
        report = build(*args, **kwargs)
        reports.append(report)
        return report

    monkeypatch.setattr(verify_module, "_report", record)
    return reports


def test_fuzz_extreme_couplings_and_fields_stay_finite(monkeypatch):
    # J and h up to 1e3: exp of the raw log-weights overflows a double
    reports = record_reports(monkeypatch)
    config = FuzzConfig(trials=150, seed=5, J_range=(0.0, 1e3), h_range=(0.0, 1e3))
    result = fuzz(config)
    assert result.failures == []
    assert len(reports) == result.checks_run > 300
    for report in reports:
        json.dumps(report_to_json_dict(report), allow_nan=False)


def test_fuzz_counts_failing_reports(monkeypatch):
    # no certified instance fails, so a stub stands in for a violated check
    bad = verify_module.VerificationReport("gks_pair", "x", 0j, 1 + 0j, -1.0, 1e-8,
                                           False)
    build = verify_module._report
    monkeypatch.setattr(verify_module, "_report", lambda claim, *a: (
        bad if claim.name == "gks_pair" else build(claim, *a)))
    result = fuzz(FuzzConfig(trials=3, seed=1))
    assert result.failures == [bad] * 3
    assert result.summary_dict()["violations"] == 3


def test_fuzz_respects_cap(monkeypatch):
    # q^(w+1) x 2 > 8 almost always; an oversize claim that reached its
    # elimination would raise EnumerationTooLarge out of fuzz
    reports = record_reports(monkeypatch)
    config = FuzzConfig(trials=40, seed=3, cap=8)
    result = fuzz(config)
    assert result.skipped_too_large > 0
    assert len(reports) == result.checks_run


@pytest.mark.parametrize(
    "changes",
    [{"cap": -5}, {"cap": 0}, {"tol": math.nan}, {"tol": -1.0}, {"tol": math.inf},
     {"trials": -3}],
    ids=["cap-5", "cap0", "tol-nan", "tol-negative", "tol-inf", "trials-negative"],
)
def test_fuzz_refuses_a_bad_config(changes):
    # cap -5 used to skip all 14 checks as too large, tol nan or -1 to fail
    # all 14, and trials -3 to run none, each without an error
    with pytest.raises(ModelError, match=f"{next(iter(changes))} must be"):
        fuzz(FuzzConfig(**{"trials": 3, "seed": 1, **changes}))


@pytest.mark.parametrize("q_values", [(), (2, 0), (3, 1)], ids=["empty", "2-0", "3-1"])
def test_fuzz_refuses_bad_q_values_before_any_draw(monkeypatch, q_values):
    # (2, 0) used to run until a trial first drew q = 0, and () failed
    # inside the first draw
    draws = []
    monkeypatch.setattr(verify_module, "_draw_model", lambda *a: draws.append(a))
    with pytest.raises(ModelError, match="q_values must list q >= 2"):
        fuzz(FuzzConfig(trials=50, seed=1, q_values=q_values))
    assert draws == []


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"families": ()}, "families must list kinds among"),
        ({"families": ("A", "zz")}, "families must list kinds among"),
        ({"n_range": (3, 1)}, r"n_range must be \(lo, hi\) with 0 <= lo <= hi"),
        ({"n_range": (-1, 2)}, r"n_range must be \(lo, hi\) with 0 <= lo <= hi"),
        ({"J_range": (1.0, 0.0)}, r"J_range must be \(lo, hi\) with 0 <= lo <= hi < inf"),
        ({"J_range": (0.0, math.inf)}, r"J_range must be \(lo, hi\)"),
        ({"h_range": (-1.0, 0.0)}, r"h_range must be \(lo, hi\)"),
        ({"edge_density": 1.5}, r"edge_density must lie in \[0, 1\], got 1.5"),
        ({"edge_density": math.nan}, "edge_density must lie in"),
    ],
    ids=["no-families", "unknown-family", "n-reversed", "n-negative", "J-reversed",
         "J-inf", "h-negative", "density-1.5", "density-nan"],
)
def test_fuzz_refuses_a_bad_draw_config_before_any_draw(monkeypatch, changes, message):
    # at the parent these raised numpy's ValueError, NegativeField or
    # OverflowError inside a draw, ModelError only once "zz" was drawn, or
    # (density 1.5) ran silently
    draws = []
    monkeypatch.setattr(verify_module, "_draw_model", lambda *a: draws.append(a))
    with pytest.raises(ModelError, match=message):
        fuzz(FuzzConfig(trials=50, seed=1, **changes))
    assert draws == []


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize(
    "claim, args",
    CLAIM_CASES,
    ids=CLAIM_IDS,
)
def test_verify_refuses_a_bad_tol(claim, args, tol):
    with pytest.raises(ModelError, match="tol must be finite and at least 0"):
        claim(edge_model(), *args, tol=tol)


SINGLE_CLAIM = {
    "_real_nonneg": verify_real_nonneg,
    "_monotone": verify_monotone,
    "_gks_pair": verify_gks_pair,
    "_disjoint_support": verify_disjoint_support,
}


def record_descriptions(monkeypatch) -> list:
    """Hook the claim descriptions the fuzzer calls: one (public check,
    model, args) entry per claim it asks for, certified or not."""
    asked = []
    for name, check in SINGLE_CLAIM.items():
        describe = getattr(verify_module, name)

        def record(model, *args, _describe=describe, _check=check):
            asked.append((_check, model, args[:-1]))
            return _describe(model, *args)

        monkeypatch.setattr(verify_module, name, record)
    return asked


def test_fuzz_reports_match_the_single_claim_route(monkeypatch):
    asked = record_descriptions(monkeypatch)
    reports = record_reports(monkeypatch)
    families = ("A", "B", "C", "table", "adversarial", "shiftA")
    result = fuzz(FuzzConfig(trials=300, seed=8, families=families))
    monkeypatch.undo()
    alone = []
    for check, model, args in asked:
        try:
            alone.append(check(model, *args))
        except NotCertified:
            pass
    assert len(alone) == len(reports) == result.checks_run > 900
    assert result.skipped_not_certified == len(asked) - len(alone) > 0
    drift = 0.0
    for got, want in zip(reports, alone):
        assert (got.claim, got.inputs, got.verdict) == (want.claim, want.inputs, want.verdict)
        assert got.details.keys() == want.details.keys()
        drift = max(drift, abs(got.margin - want.margin))
    assert drift <= 1e-15


@pytest.mark.parametrize("cap", [81, 150])
def test_fuzz_cap_window_skips_as_the_single_claim_route(monkeypatch, cap):
    # every model is a q=3 triangle, width 2, so a column costs 27 entries:
    # cap 81 holds real_nonneg's 2 columns but no 4-column claim, cap 150
    # every claim but not a trial's 10 columns, which go in several calls
    calls = count_spin_means(monkeypatch)
    asked = record_descriptions(monkeypatch)
    config = FuzzConfig(trials=60, seed=2, q_values=(3,), n_range=(3, 3),
                        edge_density=1.0, cap=cap)
    result = fuzz(config)
    monkeypatch.undo()
    counts = {"checks": 0, "skipped_not_certified": 0, "skipped_too_large": 0}
    for check, model, args in asked:
        try:
            check(model, *args, cap=cap)
            counts["checks"] += 1
        except NotCertified:
            counts["skipped_not_certified"] += 1
        except EnumerationTooLarge:
            counts["skipped_too_large"] += 1
    summary = result.summary_dict()
    assert {key: summary[key] for key in counts} == counts
    assert (counts["skipped_too_large"] > 0) == (cap == 81)
    assert (len(calls) > result.trials_run) == (cap == 150)


def count_spin_means(monkeypatch) -> list:
    calls = []
    means = verify_module.spin_means

    def count(model, columns, cap=None):
        calls.append(len(columns))
        return means(model, columns, cap)

    monkeypatch.setattr(verify_module, "spin_means", count)
    return calls


def test_fuzz_takes_one_elimination_per_trial(monkeypatch):
    calls = count_spin_means(monkeypatch)
    for seed in range(150):
        calls.clear()
        result = fuzz(FuzzConfig(trials=1, seed=seed))
        assert len(calls) == (1 if result.checks_run else 0)
        assert calls == [] or calls[0] <= 10


# SHA-256 of the (inputs, margin, verdict) stream below, taken once a trial's
# means came from one elimination and wide buckets were contracted pairwise:
# a margin may differ from the one-claim route's by rounding
# (test_fuzz_reports_match_the_single_claim_route)
FROZEN_STREAM_SHA256 = "ffba05e1483931717557f901c045cda6a1800b29a98dea8e200cb173294a6357"


def test_fuzz_report_stream_is_frozen(monkeypatch):
    reports = record_reports(monkeypatch)
    config = FuzzConfig(trials=400, seed=42,
                        families=("A", "B", "C", "table", "adversarial"))
    result = fuzz(config)
    assert result.summary_dict() == {
        "type": "summary", "trials": 400, "checks": 1604, "violations": 0,
        "skipped_not_certified": 259, "skipped_too_large": 0, "seed": 42,
    }
    blob = "\n".join(json.dumps([r.inputs, r.margin, r.verdict]) for r in reports)
    assert hashlib.sha256(blob.encode()).hexdigest() == FROZEN_STREAM_SHA256


# SHA-256 of the (claim, inputs, verdict) stream of the same 400 trials, taken
# while each check ran its own elimination: batching a trial's means may move
# the last bits of a margin, but not which claims run, on what, or a verdict
CLAIM_STREAM_SHA256 = "aa68e9bba454f31825e6baf06c06ca058bfd0e6988706a05b6f92c77d7a01bd2"


def test_fuzz_claim_stream_is_frozen(monkeypatch):
    reports = record_reports(monkeypatch)
    config = FuzzConfig(trials=400, seed=42,
                        families=("A", "B", "C", "table", "adversarial"))
    fuzz(config)
    assert len(reports) == 1604
    blob = "\n".join(json.dumps([r.claim, r.inputs, r.verdict]) for r in reports)
    assert hashlib.sha256(blob.encode()).hexdigest() == CLAIM_STREAM_SHA256


# ---------------------------------------------------------------------------
# frozen inputs: digests, the suite and the model draws
# ---------------------------------------------------------------------------


def json_digest(*parts) -> str:
    """The inputs digest written out as one json.dumps of the claim name, the
    model's dict and the claim's parts, a complex value as [re, im]."""

    def default(obj):
        if isinstance(obj, complex):
            return [obj.real, obj.imag]
        raise TypeError(f"not serializable: {obj!r}")

    blob = json.dumps(parts, sort_keys=True, default=default)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


TRIANGLE = (("a", "b", "ü"), (("a", "b"), ("b", "ü"), ("a", "ü")),
            (0.7, 1e-3, 2.5))


@pytest.mark.parametrize("h", [(0.0, 0.0, 0.0), (0.4, 0.0, 1.25)], ids=["free", "field"])
@pytest.mark.parametrize(
    "f",
    [make_family("A", 3), make_family("B", 3), SpinFunction((0.9, 0.25, 0.0))],
    ids=["staircase", "roots", "table"],
)
@pytest.mark.parametrize("R", [(), ("a", "ü")], ids=["empty", "pair"])
def test_report_inputs_are_the_json_digest_of_the_claim(h, f, R):
    model = PottsModel(*TRIANGLE, h, 3)
    S = ("b",)
    indicators = (SpinFunction((1.0, 0.0, 0.0)), SpinFunction((0.0, 0.5, 1.0)))
    cases = [
        (verify_real_nonneg(model, f, R), (f.values, R)),
        (verify_monotone(model, f, R, ("b", "ü")), (f.values, R, "J[b,ü]")),
        (verify_monotone(model, f, R, "a"), (f.values, R, "h[a]")),
        (verify_gks_pair(model, f, R, S), (f.values, R, S)),
        (verify_disjoint_support(model, *indicators, R, S),
         (indicators[0].values, indicators[1].values, R, S)),
    ]
    for report, parts in cases:
        assert report.inputs == json_digest(report.claim, model.to_json_dict(), *parts)


# SHA-256 of the suite's models and of 500 random_model draws at non-default
# arguments, each as sorted-key JSON; taken when both were first pinned
SUITE_SHA256 = "9f4b4eaa4662154fa77e83b47fbc44a1a893b10895580b1801571ff057eccb72"
DRAWS_SHA256 = "e24e347d50227622b539d69e9645b5db8e0b3aec96e033f4623c9f16570cfab1"
DRAW_ARGS = [
    {},
    {"q_values": (4,)},
    {"n_range": (1, 1)},
    {"q_values": (2, 5), "n_range": (3, 5), "edge_density": 0.0},
    {"n_range": (2, 5), "edge_density": 1.0, "J_range": (0.5, 2.5), "h_range": (0.0, 0.0)},
]


def test_verification_suite_is_frozen():
    blob = json.dumps([m.to_json_dict() for m in verification_suite()], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == SUITE_SHA256


def test_random_model_draws_are_frozen():
    rng = np.random.default_rng(2020)
    models = [random_model(rng, **DRAW_ARGS[k % len(DRAW_ARGS)]) for k in range(500)]
    assert {m.n_vertices for m in models[2::5]} == {1}
    assert not any(m.edges for m in models[3::5])
    assert all(len(m.edges) == m.n_vertices * (m.n_vertices - 1) // 2
               for m in models[4::5])
    blob = json.dumps([m.to_json_dict() for m in models], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == DRAWS_SHA256
