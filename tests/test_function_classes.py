"""Moment tables, membership checks, and the three ready-made families."""

import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from potts_gks import (
    BadFamilyC,
    ModelError,
    NonFiniteValue,
    SpinFunction,
    check_Fq,
    check_Fq_i,
    make_family,
    moments,
    spin_function_from_spec,
)
from potts_gks.function_classes import moments_real_nonneg
from oracles import brute_moment


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moments_roots_of_unity_q3():
    f = make_family("B", 3)
    tab = moments(f, 6)
    assert abs(tab.S[1]) <= 1e-13
    assert abs(tab.S[2]) <= 1e-13
    assert tab.S[3] == pytest.approx(3.0, abs=1e-13)
    assert tab.S[6] == pytest.approx(3.0, abs=1e-13)


def test_moments_staircase_q2():
    f = make_family("A", 2)  # (1/2, -1/2)
    tab = moments(f, 4)
    assert tab.S[1] == 0.0
    assert tab.S[2] == pytest.approx(0.5, abs=0)
    assert tab.S[3] == 0.0
    assert tab.S[4] == pytest.approx(0.125, abs=0)


def test_moments_staircase_q3():
    f = make_family("A", 3)  # (1, 0, -1)
    tab = moments(f, 5)
    assert tab.S == (3 + 0j, 0j, 2 + 0j, 0j, 2 + 0j, 0j)


def test_moments_zero_power_counts_states():
    # 0**0 == 1, so S_0 == q even when f hits 0
    f = SpinFunction((0.0, 0.0, 0.5))
    assert moments(f, 2).S[0] == 3 + 0j


@given(st.integers(2, 6), st.integers(0, 10))
def test_moments_match_oracle(q, m):
    f = make_family("B", q)
    tab = moments(f, m)
    assert tab.S[m] == pytest.approx(brute_moment(f, m), abs=1e-12)


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
    tab = moments(f, 48)
    for m, s in enumerate(tab.S):
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


def test_memo_key_fills_in_defaults():
    f = make_family("A", 5)
    report = check_Fq(f, 16, 1e-9)
    assert check_Fq(f) is report
    assert check_Fq(f, M=16) is report
    assert check_Fq(SpinFunction(f.values), tol=1e-9) is report
    assert moments_real_nonneg(f, 16) is moments_real_nonneg(f, M=16, tol=1e-9)


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
    assert check_Fq_i(f, 0) is report
    assert check_Fq_i(SpinFunction(f.values), 0, M=16) is report
    assert check_Fq_i(f, 0, tol=1e-9) is report
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
    S = moments(SpinFunction(tuple(values)), M).S
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
    with pytest.raises(NonFiniteValue, match="must be finite"):
        SpinFunction(values)
    with pytest.raises(NonFiniteValue):
        spin_function_from_spec({"kind": "table", "q": 2, "values": list(values)})


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
    with pytest.raises(BadFamilyC):
        make_family("C", 3, (1.0, 2.0, 0.0))
    with pytest.raises(BadFamilyC):
        make_family("C", 3, (1.0, -0.5, 0.0))
    with pytest.raises(BadFamilyC):
        make_family("C", 3, None)


@pytest.mark.parametrize("q", range(2, 13))
@pytest.mark.parametrize("kind", ["A", "B", "C"])
def test_families_certified_up_to_48(kind, q):
    values = [1 - x / q for x in range(q)] if kind == "C" else None
    f = make_family(kind, q, values)
    assert check_Fq_i(f, 0, M=48, tol=1e-9).passed


@pytest.mark.parametrize("q", range(2, 13))
def test_family_b_moment_identity(q):
    tab = moments(make_family("B", q), 48)
    for m, s in enumerate(tab.S):
        want = float(q) if m % q == 0 else 0.0
        assert abs(s - want) <= 1e-12


@pytest.mark.parametrize("q", range(2, 13))
def test_family_a_odd_moments_vanish(q):
    tab = moments(make_family("A", q), 48)
    for m, s in enumerate(tab.S):
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


@given(st.lists(st.floats(0.0, 1.5), min_size=2, max_size=8))
def test_nonnegative_tables_always_members(vals):
    # E(T^{m+n}) >= E(T^m) E(T^n) for any non-negative T
    report = check_Fq(SpinFunction(tuple(vals)), M=12, tol=1e-9)
    assert report.in_Fq, report.first_violation


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
