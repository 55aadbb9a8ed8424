"""Moment tables, membership checks, and the three ready-made families."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from potts_gks import (
    ModelError,
    SpinFunction,
    check_Fq,
    check_Fq_i,
    make_family,
    moments,
    spin_function_from_spec,
)
from potts_gks.function_classes import MembershipReport, _scan_Fq, moments_real_nonneg
from oracles import brute_moment, exact_moment_inequalities


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moments_roots_of_unity_q3():
    f = make_family("B", 3)
    S = moments(f, 6)
    assert abs(S[1]) <= 1e-13
    assert abs(S[2]) <= 1e-13
    assert S[3] == pytest.approx(3.0, abs=1e-13)
    assert S[6] == pytest.approx(3.0, abs=1e-13)


def test_moments_staircase_q2():
    f = make_family("A", 2)  # (1/2, -1/2)
    S = moments(f, 4)
    assert S[1] == 0.0
    assert S[2] == pytest.approx(0.5, abs=0)
    assert S[3] == 0.0
    assert S[4] == pytest.approx(0.125, abs=0)


def test_moments_staircase_q3():
    f = make_family("A", 3)  # (1, 0, -1)
    S = moments(f, 5)
    assert S == (3 + 0j, 0j, 2 + 0j, 0j, 2 + 0j, 0j)


def test_moments_zero_power_counts_states():
    # 0**0 == 1, so S_0 == q even when f hits 0
    f = SpinFunction((0.0, 0.0, 0.5))
    assert moments(f, 2)[0] == 3 + 0j
    with pytest.raises(ModelError, match="M must be >= 0, got -1"):
        moments(f, -1)


@given(st.integers(2, 6), st.integers(0, 10))
def test_moments_match_oracle(q, m):
    f = make_family("B", q)
    S = moments(f, m)
    assert S[m] == pytest.approx(brute_moment(f, m), abs=1e-12)


# ---------------------------------------------------------------------------
# membership checks
# ---------------------------------------------------------------------------


def test_constant_function_passes_with_equality():
    for q in (2, 3, 5):
        f = SpinFunction((1.0,) * q)
        report = check_Fq(f, M=12, tol=1e-9)
        assert report.in_Fq
        assert report.first_violation is None


def test_negative_first_moment_fails():
    f = SpinFunction((1.0, -2.0))
    report = check_Fq(f, M=8, tol=1e-9)
    assert not report.in_Fq
    m, n, margin = report.first_violation
    assert (m, n) == (1, 0)
    assert margin == pytest.approx(-1.0)


def test_moment_product_condition_fails():
    # S_m is real and non-negative (3, 2, 22, 8, ...), but q S_3 = 24 < S_1 S_2 = 44
    report = check_Fq(SpinFunction((3.0, -3.0, 2.0)))
    assert not report.in_Fq
    assert report.first_violation == (1, 2, -20.0)


def test_fourth_roots_pass_any_bound():
    f = SpinFunction((1, 1j, -1, -1j))
    report = check_Fq_i(f, 0, M=48, tol=1e-9)
    assert report.passed
    S = moments(f, 48)
    for m, s in enumerate(S):
        want = 4.0 if m % 4 == 0 else 0.0
        assert abs(s - want) <= 1e-12


def test_peak_condition_enforced():
    f = SpinFunction((0.0, 1.0, 0.0))
    report = check_Fq_i(f, 0, M=8, tol=1e-9)
    assert report.in_Fq  # moments fine: non-negative table
    assert report.in_Fq_i is None  # but the peak sits at 1, not 0
    assert report.condition1_margin == pytest.approx(-1.0)
    assert not report.passed


def test_peak_condition_constant():
    f = SpinFunction((1.0, 1.0))
    assert check_Fq_i(f, 0, M=8, tol=1e-9).passed


def test_staircase_with_peak_at_zero():
    report = check_Fq_i(make_family("A", 3), 0, M=16, tol=1e-9)
    assert report.passed and report.in_Fq_i == 0


def test_membership_report_invariant():
    # first_violation present iff in_Fq is false
    good = check_Fq(make_family("A", 4), M=16, tol=1e-9)
    assert good.in_Fq and good.first_violation is None
    bad = check_Fq(SpinFunction((1.0, -2.0)), M=8, tol=1e-9)
    assert not bad.in_Fq and bad.first_violation is not None


# a small pool of values, so that drawn tables repeat across examples
_VALUE_POOL = (0.0, 0.5, 1.0, -1.0, 1j, -1j, 0.5 - 0.5j, -0.25)
_memo_tables = st.lists(st.sampled_from(_VALUE_POOL), min_size=2, max_size=4)


@given(
    st.lists(
        st.tuples(_memo_tables, st.sampled_from([1, 2, 8, 16, 24]),
                  st.sampled_from([1e-9, 0.0, 1e-3])),
        min_size=1,
        max_size=6,
    )
)
def test_memoized_checks_equal_their_bodies(calls):
    # each call twice, so the second is served from the cache when the
    # first was not already
    for values, M, tol in calls + calls:
        f = SpinFunction(tuple(values))
        assert check_Fq(f, M, tol) == check_Fq.__wrapped__(f, M, tol)
        assert moments_real_nonneg(f, M, tol) == moments_real_nonneg.__wrapped__(f, M, tol)
        body = check_Fq.__wrapped__(f, M, tol)
        report_i = check_Fq_i(f, 0, M, tol)
        assert (report_i.in_Fq, report_i.first_violation) == (body.in_Fq,
                                                               body.first_violation)


def test_memo_key_is_typed():
    # the body refuses a float M; a cached int entry must not answer for it
    f = make_family("B", 3)
    check_Fq(f, 16)
    with pytest.raises(TypeError):
        check_Fq(f, 16.0)


def test_memo_does_not_cache_errors():
    f = make_family("A", 3)
    for _ in range(3):
        with pytest.raises(ModelError, match="M must be >= 1"):
            check_Fq(f, 0)


def test_peak_check_is_certified_once():
    f = SpinFunction((0.8, 0.3, 0.55))
    report = check_Fq_i(f, 0, 16, 1e-9)
    assert check_Fq_i(SpinFunction(f.values), 0, 16, 1e-9) is report
    assert report == check_Fq_i.__wrapped__(f, 0, 16, 1e-9)
    assert check_Fq_i(f, 1, 16) == check_Fq_i.__wrapped__(f, 1, 16)
    assert check_Fq_i(f, 1, 16) is not check_Fq_i(f, 0, 16)


def test_peak_check_memo_key_is_typed():
    # the body refuses a float M; a cached int entry must not answer for it
    f = make_family("A", 4)
    assert check_Fq_i(f, 0, 16).passed
    with pytest.raises(TypeError):
        check_Fq_i(f, 0, 16.0)
    with pytest.raises(TypeError):
        check_Fq_i(f, 0, M=16.0)


def test_peak_check_memo_does_not_cache_errors():
    f = make_family("B", 3)
    for _ in range(3):
        with pytest.raises(ModelError, match=r"index i must be in \[0, 2\], got 3"):
            check_Fq_i(f, 3)
        with pytest.raises(ModelError, match="M must be >= 1"):
            check_Fq_i(f, 0, 0)


def naive_moments(values, M):
    """S_m = sum_x f(x)^m as complex products summed by fsum: the loop that
    moments runs on a table with a non-zero imaginary part."""
    powers = [1 + 0j] * len(values)
    S = []
    for m in range(M + 1):
        if m > 0:
            powers = [p * complex(v) for p, v in zip(powers, values)]
        S.append(complex(math.fsum(p.real for p in powers),
                         math.fsum(p.imag for p in powers)))
    return S


@given(
    st.lists(
        st.one_of(st.just(0.0), st.just(-1.0), st.floats(-3.0, 3.0, allow_nan=False)),
        min_size=2,
        max_size=6,
    ),
    st.integers(0, 24),
)
def test_real_table_moments_equal_the_complex_loop(values, M):
    S = moments(SpinFunction(tuple(values)), M)
    assert list(S) == naive_moments(values, M)
    assert all(s.imag == 0.0 for s in S)


@pytest.mark.parametrize(
    "values",
    [
        (float("nan"), 1.0),
        (1.0, float("inf")),
        (complex(1.0, float("nan")), 0.0),
        (complex(float("-inf"), 0.0), 0.0),
    ],
)
def test_non_finite_values_are_rejected(values):
    # every comparison with NaN is false, so the moment checks would pass it
    with pytest.raises(ModelError, match="must be finite"):
        SpinFunction(values)
    with pytest.raises(ModelError, match="spin function values must be finite"):
        spin_function_from_spec({"kind": "table", "q": 2, "values": list(values)})


@pytest.mark.parametrize(
    "values",
    [
        (1.2e154, 1.2e154, 1.2e154, -1.0, 0.0),  # S_2's running sum overflows
        (1e200, 0.0, -1e200),  # each power overflows: inf at S_2, inf - inf at S_3
        (1e200j, 1.0, -1.0),  # the real part of S_2 overflows
    ],
    ids=["intermediate", "powers", "complex"],
)
def test_power_sums_past_float64_raise_model_error(values):
    # they used to raise a bare OverflowError or ValueError from fsum
    f = SpinFunction(values)
    assert all(map(math.isfinite, (s.real for s in moments(f, 1))))
    with pytest.raises(ModelError, match="the power sum S_2 overflows float64"):
        moments(f, 16)
    with pytest.raises(ModelError, match="the power sum S_2 overflows float64"):
        check_Fq(f)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_family_a_values():
    assert make_family("A", 3).values == (1 + 0j, 0j, -1 + 0j)


def test_family_b_values():
    f = make_family("B", 4)
    want = (1, 1j, -1, -1j)
    assert all(abs(a - b) <= 1e-15 for a, b in zip(f.values, want))


def test_family_c_validation():
    f = make_family("C", 3, (1.0, 0.5, 0.0))
    assert f.values == (1 + 0j, 0.5 + 0j, 0j)
    with pytest.raises(ModelError, match=r"family C values must satisfy f\(x\) <= f\(0\)"):
        make_family("C", 3, (1.0, 2.0, 0.0))
    with pytest.raises(ModelError, match="family C values must be real and non-negative"):
        make_family("C", 3, (1.0, -0.5, 0.0))
    with pytest.raises(ModelError, match="family C needs an explicit value table"):
        make_family("C", 3, None)
    with pytest.raises(ModelError, match="family C needs 3 values, got 2"):
        make_family("C", 3, [1.0, 0.5])


@pytest.mark.parametrize("q", range(2, 13))
@pytest.mark.parametrize("kind", ["A", "B", "C"])
def test_families_certified_up_to_48(kind, q):
    values = [1 - x / q for x in range(q)] if kind == "C" else None
    f = make_family(kind, q, values)
    assert check_Fq_i(f, 0, M=48, tol=1e-9).passed


@pytest.mark.parametrize("q", range(2, 13))
def test_family_b_moment_identity(q):
    S = moments(make_family("B", q), 48)
    for m, s in enumerate(S):
        want = float(q) if m % q == 0 else 0.0
        assert abs(s - want) <= 1e-12


@pytest.mark.parametrize("q", range(2, 13))
def test_family_a_odd_moments_vanish(q):
    S = moments(make_family("A", q), 48)
    for m, s in enumerate(S):
        if m == 0:
            continue
        if m % 2 == 1:
            assert s == 0j
        else:
            assert s.real > 0.0 and s.imag == 0.0


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
@pytest.mark.parametrize(
    "values",
    [
        tuple((3 - 1) / 2 - x for x in range(3)),
        tuple((5 - 1) / 2 - x for x in range(5)),
        (1.0, 0.25, 0.7, 0.1),
        (0.9, 0.9, 0.2),
    ],
)
def test_positive_scaling_preserves_membership(c, values):
    f = SpinFunction(values)
    assert check_Fq(f, M=16, tol=1e-9).in_Fq
    scaled = SpinFunction(tuple(c * v for v in values))
    assert check_Fq(scaled, M=16, tol=1e-9).in_Fq


@given(st.sampled_from("AB"), st.integers(2, 5), st.floats(0.3, 10.0))
@example("A", 2, 9.1)  # failed at (8, 8), margin -1.5e-5, with an absolute tol
@example("B", 3, 3.3)  # failed at (11, 0): |Im S_11| = 2.6e-9
def test_positive_scaling_keeps_the_families_membership(kind, q, c):
    f = make_family(kind, q)
    scaled = SpinFunction(tuple(c * v for v in f.values))
    for M in (16, 20):
        assert check_Fq(scaled, M).in_Fq == check_Fq(f, M).in_Fq
        assert check_Fq_i(scaled, 0, M).passed == check_Fq_i(f, 0, M).passed


def test_tolerance_is_relative_to_the_terms():
    # (1, -1.0001) is outside F_2 by S_1 = -1e-4: refused at tol 1e-5 at
    # every scale, since the bound is tol * A_1 = tol * 2.0001 (times c)
    for c in (1e-6, 1.0, 1e6):
        f = SpinFunction((c, -1.0001 * c))
        m, n, margin = check_Fq(f, 2, 1e-5).first_violation
        assert (m, n) == (1, 0) and margin == pytest.approx(-1e-4 * c)
        assert check_Fq(f, 2, 1e-4).in_Fq
    # the peak condition is scaled by max |f|
    f = SpinFunction((0.9995, 1.0))
    assert check_Fq_i(f, 0, 4, 1e-3).passed
    assert not check_Fq_i(f, 0, 4, 1e-4).passed
    assert check_Fq_i(SpinFunction((999.5, 1000.0)), 0, 4, 1e-3).passed


@given(st.lists(st.floats(0.0, 1.5), min_size=2, max_size=8))
def test_nonnegative_tables_always_members(vals):
    # E(T^{m+n}) >= E(T^m) E(T^n) for any non-negative T
    report = check_Fq(SpinFunction(tuple(vals)), M=12, tol=1e-9)
    assert report.in_Fq, report.first_violation


# real non-negative tables, signed zeros and entries far above 1 included
_nonneg_tables = st.lists(
    st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 1.5), st.floats(0.0, 30.0)),
    min_size=2,
    max_size=5,
)
_pinned_M = st.sampled_from([1, 2, 8, 16, 20])


@given(_nonneg_tables, _pinned_M, st.sampled_from([0.0, 1e-9]))
def test_nonnegative_tables_pass_the_exact_oracle(values, M, tol):
    # the oracle sums the powers exactly: Chebyshev's sum inequality, checked
    assert exact_moment_inequalities(values, M)
    f = SpinFunction(tuple(values))
    assert check_Fq(f, M, tol).in_Fq
    assert check_Fq_i(f, values.index(max(values)), M, tol).passed
    assert moments_real_nonneg(f, M, tol) == (True, None)


@given(_nonneg_tables, _pinned_M, st.sampled_from([0.0, 1e-9, 1e-3]))
def test_sign_route_equals_the_scan_wherever_the_scan_passes(values, M, tol):
    f = SpinFunction(tuple(values))
    scan = _scan_Fq(f, M, tol)
    if scan.in_Fq:
        assert check_Fq.__wrapped__(f, M, tol) == scan
        assert moments_real_nonneg.__wrapped__(f, M, tol) == (True, None)


def test_nonnegative_tables_certify_where_the_scan_rounds_below_zero():
    f = SpinFunction((3.3, 3.3))
    assert _scan_Fq(f, 16, 0.0).first_violation is not None  # rounding alone
    assert check_Fq(f, 16, 0.0) == MembershipReport(True, None, 16, 0.0, None)
    assert check_Fq_i(f, 0, 16, 0.0).passed
    assert moments_real_nonneg(f, 16, 0.0) == (True, None)
    # tables of 0 and two values up to 30, near equality in many constraints:
    # the scan refused 146 of these 2000 at M = 16 and the default tol
    rng = np.random.default_rng(826)
    for _ in range(2000):
        q = int(rng.integers(2, 6))
        values = rng.choice([0.0, *rng.uniform(0.0, 30.0, size=2)], size=q)
        f = SpinFunction(tuple(values))
        assert check_Fq(f).in_Fq and check_Fq(f, 16, 0.0).in_Fq


def test_sign_route_keeps_the_argument_errors():
    # the memo tests above draw their M errors on families A and B, which
    # take the scan; a non-negative table must be refused the same way
    f = SpinFunction((0.8, 0.3, 0.0))
    assert check_Fq(f, 16).in_Fq and check_Fq_i(f, 0, 16).passed
    assert moments_real_nonneg(f, 16) == (True, None)
    for _ in range(3):
        with pytest.raises(TypeError):
            check_Fq(f, 16.0)
        with pytest.raises(ModelError, match="M must be >= 1, got 0"):
            check_Fq(f, 0)
        with pytest.raises(TypeError):
            check_Fq_i(f, 0, 16.0)
        with pytest.raises(ModelError, match="M must be >= 1, got 0"):
            check_Fq_i(f, 0, 0)
        with pytest.raises(TypeError):
            moments_real_nonneg(f, 16.0)
        with pytest.raises(ModelError, match="M must be >= 0, got -1"):
            moments_real_nonneg(f, -1)
    assert moments_real_nonneg(f, 0) == (True, None)
    # a negative tol asks for strict slack, which fails at m = n = 0
    assert check_Fq(f, 4, -1e-3) == _scan_Fq(f, 4, -1e-3)
    assert check_Fq(f, 4, -1e-3).first_violation[:2] == (0, 0)


# ---------------------------------------------------------------------------
# function spec parsing
# ---------------------------------------------------------------------------


def test_spec_families_and_tables():
    assert spin_function_from_spec({"kind": "A", "q": 3}) == make_family("A", 3)
    f = spin_function_from_spec(
        {"kind": "table", "q": 2, "values": [[0.5, 0.0], [-0.5, 0.0]]}
    )
    assert f.values == (0.5 + 0j, -0.5 + 0j)
    f = spin_function_from_spec({"kind": "C", "q": 2, "values": [1.0, 0.5]})
    assert f.values == (1 + 0j, 0.5 + 0j)
    with pytest.raises(ModelError):
        spin_function_from_spec({"kind": "table", "q": 3, "values": [1.0]})
    with pytest.raises(ModelError):
        spin_function_from_spec({"kind": "nope", "q": 3})
    # values that are not a list of numbers or [re, im] pairs
    for values in (5, [[1]], [None, 1]):
        with pytest.raises(ModelError, match="malformed function values"):
            spin_function_from_spec({"kind": "table", "q": 2, "values": values})


# ---------------------------------------------------------------------------
# frozen membership reports
# ---------------------------------------------------------------------------


def _pin_value(rng, lo, hi):
    """A draw from [lo, hi], or a signed zero one time in six."""
    if rng.random() < 1 / 6:
        return 0.0 if rng.random() < 0.5 else -0.0
    return float(rng.uniform(lo, hi))


def pinned_tables():
    """A seeded set of tables with entries in [-1.2, 1.2], some of them
    signed zeros: non-negative, signed and complex draws, and scaled
    staircases and roots of unity nudged by 10^-k, near the class's edge."""
    rng = np.random.default_rng(20261019)
    tables = []
    for k in range(120):
        q = 2 + k % 4
        group = k // 30
        if group == 0:
            values = [_pin_value(rng, 0.0, 1.2) for _ in range(q)]
        elif group == 1:
            values = [_pin_value(rng, -1.2, 1.2) for _ in range(q)]
        elif group == 2:
            values = [complex(_pin_value(rng, -1.2, 1.2), _pin_value(rng, -1.2, 1.2))
                      for _ in range(q)]
        else:
            kind = "A" if k % 2 else "B"
            base = make_family(kind, q).values
            scale = float(rng.uniform(0.3, 1.15)) / max(abs(v) for v in base)
            nudge = 10.0 ** -int(rng.integers(2, 9))
            values = [scale * v + nudge * complex(rng.uniform(-1, 1),
                                                  rng.uniform(-1, 1) if kind == "B" else 0.0)
                      for v in base]
        tables.append(SpinFunction(tuple(values)))
    return tables


def pinned_reports():
    """repr of check_Fq, check_Fq_i(f, 0) and moments_real_nonneg on every
    pinned table, M in {1, 2, 8, 16, 20} and tol in {1e-9, 1e-3}."""
    out = []
    for f in pinned_tables():
        for M in (1, 2, 8, 16, 20):
            for tol in (1e-9, 1e-3):
                out.append(repr((f.values, M, tol, check_Fq(f, M, tol),
                                 check_Fq_i(f, 0, M, tol), moments_real_nonneg(f, M, tol))))
    return out


# SHA-256 of the reports above. Certifying non-negative tables by their sign
# left it unchanged; it was taken again when the scan's tolerance became
# relative to each constraint's terms, which moved 27 of the 1200 lines,
# all on nudged staircases and roots of unity (listed in CHANGES.md)
MEMBERSHIP_SHA256 = "8d220c1559d78de205f66d5115392f093e079c88cbce3665c39c24b1cdf9831b"


def test_membership_reports_are_frozen():
    blob = "\n".join(pinned_reports())
    assert hashlib.sha256(blob.encode()).hexdigest() == MEMBERSHIP_SHA256
