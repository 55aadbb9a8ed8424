"""Acceptance suite: one test per criterion, one printed line each.

The instance suite is the small-graph atlas (isomorphism-distinct graphs
on <= 4 vertices, q in {2,3}, J == 1, h == 0) plus 20 seeded random
weighted instances with fields, q in {2..5}. Every instance satisfies
|E+| <= 10, so per-bond-configuration identities can be checked on all
of them: the naive oracle of tests/oracles.py gives every code's cluster
partition by BFS, and an identity that depends on the bonds only through
the partition is checked once per partition, on its first code.
"""

import math
import time

import numpy as np
import pytest

from potts_gks import (
    FuzzConfig,
    PottsModel,
    SpinFunction,
    augment,
    check_Fq_i,
    conditional_expectation,
    coupled_spin_marginal,
    estimate_pooled,
    event_Z,
    fuzz,
    make_family,
    moments,
    potts_distribution,
    potts_expectation,
    rc_expectation,
    verify_disjoint_support,
    verify_gks_pair,
    verify_monotone,
    verify_real_nonneg,
)
from potts_gks.instances import torus_grid, verification_suite
from oracles import code_partition_keys, first_omegas

TOL_COUPLING = 1e-10
TOL_TOWER = 1e-10
TOL_MEMBERSHIP = 1e-9
TOL_CHECK = 1e-8
TOL_PER_CONFIG = 1e-12


def _announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def suite():
    return verification_suite()


def _family_c(q: int) -> SpinFunction:
    return make_family("C", q, [1 - x / q for x in range(q)])


def _certified_table(rng: np.random.Generator, q: int) -> SpinFunction:
    vals = rng.uniform(0.0, 1.0, size=q)
    vals[0] = vals.max()
    f = SpinFunction(tuple(vals))
    assert check_Fq_i(f, 0, M=16, tol=TOL_MEMBERSHIP).passed
    return f


def _seeded_region(rng: np.random.Generator, model: PottsModel) -> tuple[str, ...]:
    return tuple(v for v in model.vertices if rng.random() < 0.5)


def _disjoint_pair(rng: np.random.Generator, q: int):
    in_supp0 = [True] + [bool(rng.random() < 0.5) for _ in range(q - 1)]
    v0 = [float(rng.uniform(0.1, 1.0)) if m else 0.0 for m in in_supp0]
    v1 = [0.0 if m else float(rng.uniform(0.1, 1.0)) for m in in_supp0]
    v0[0] = max(v0)
    return SpinFunction(tuple(v0)), SpinFunction(tuple(v1))


# ---------------------------------------------------------------------------


def test_criterion_1_coupling_correctness(suite):
    start = time.perf_counter()
    worst = 0.0
    for model in suite:
        marginal = coupled_spin_marginal(augment(model))
        pi = potts_distribution(model)
        worst = max(worst, 0.5 * float(np.sum(np.abs(marginal - pi))))
    elapsed = time.perf_counter() - start
    _announce(
        "1 coupling-correctness",
        worst <= TOL_COUPLING and elapsed < 30.0,
        f"{len(suite)} instances, worst TV {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_tower_identity(suite):
    rng = np.random.default_rng(2024_02)
    worst = 0.0
    n_checks = 0
    for model in suite:
        aug = augment(model)
        functions = [
            make_family("A", model.q),
            make_family("B", model.q),
            _family_c(model.q),
            _certified_table(rng, model.q),
            _certified_table(rng, model.q),
        ]
        for f in functions:
            R = _seeded_region(rng, model)
            lhs = rc_expectation(aug, [(f, R)])
            rhs = potts_expectation(model, [(f, R)])
            worst = max(worst, abs(lhs - rhs))
            n_checks += 1
    _announce(
        "2 tower-identity",
        worst <= TOL_TOWER,
        f"{n_checks} checks, worst |phi(g_R) - <f^R>| = {worst:.3e}",
    )


def test_criterion_3_family_membership():
    ok = True
    worst_residual = 0.0
    for q in range(2, 13):
        for f in (make_family("A", q), make_family("B", q), _family_c(q)):
            if not check_Fq_i(f, 0, M=48, tol=TOL_MEMBERSHIP).passed:
                ok = False
        S = moments(make_family("B", q), 48)
        for m, s in enumerate(S):
            want = float(q) if m % q == 0 else 0.0
            worst_residual = max(worst_residual, abs(s - want))
    _announce(
        "3 family-membership",
        ok and worst_residual <= 1e-12,
        f"q in 2..12 at M=48; roots-of-unity residual {worst_residual:.3e}",
    )


def test_criterion_4_spin_mean_properties(suite):
    rng = np.random.default_rng(2024_04)
    worst = math.inf
    n_checks = 0
    for model in suite:
        for f in (make_family("A", model.q), make_family("B", model.q),
                  _family_c(model.q)):
            R = _seeded_region(rng, model)
            rep = verify_real_nonneg(model, f, R)
            worst = min(worst, rep.margin)
            assert rep.details["imag_residual"] <= TOL_CHECK
            n_checks += 1
            for coord in list(model.edges) + list(model.vertices):
                rep = verify_monotone(model, f, R, coord)
                worst = min(worst, rep.margin)
                n_checks += 1
            for _ in range(10):
                pair = (_seeded_region(rng, model), _seeded_region(rng, model))
                rep = verify_gks_pair(model, f, *pair)
                worst = min(worst, rep.margin)
                n_checks += 1
    _announce(
        "4 mean-real-monotone-gks",
        worst >= -TOL_CHECK,
        f"{n_checks} checks, worst margin {worst:.3e}",
    )


def test_criterion_5_disjoint_support(suite):
    rng = np.random.default_rng(2024_05)
    worst = math.inf
    worst_factorization = 0.0
    for model in suite:
        q = model.q
        schonmann = (
            SpinFunction(tuple(1.0 if x == 0 else 0.0 for x in range(q))),
            SpinFunction(tuple(1.0 if x == 1 else 0.0 for x in range(q))),
        )
        pairs = [schonmann] + [_disjoint_pair(rng, q) for _ in range(5)]
        regions = [
            (_seeded_region(rng, model), _seeded_region(rng, model))
            for _ in pairs
        ]
        for (f0, f1), (R, S) in zip(pairs, regions):
            rep = verify_disjoint_support(model, f0, f1, R, S)
            worst = min(worst, rep.margin)
        # the indicator factorization, configuration by configuration
        aug = augment(model)
        omegas = first_omegas(aug, code_partition_keys(aug)).values()
        for (f0, f1), (R, S) in zip(pairs[:3], regions[:3]):
            for omega in omegas:
                lhs = conditional_expectation(aug, omega, [(f0, R), (f1, S)])
                rhs = (
                    event_Z(aug, omega, R, S)
                    * conditional_expectation(aug, omega, [(f0, R)])
                    * conditional_expectation(aug, omega, [(f1, S)],
                                              include_ghost=False)
                )
                worst_factorization = max(worst_factorization, abs(lhs - rhs))
    _announce(
        "5 disjoint-support",
        worst >= -TOL_CHECK and worst_factorization <= TOL_PER_CONFIG,
        f"worst margin {worst:.3e}, worst factorization residual "
        f"{worst_factorization:.3e}",
    )


def test_criterion_6_bond_monotonicity(suite):
    rng = np.random.default_rng(2024_06)
    worst = math.inf
    for model in suite:
        aug = augment(model)
        m_bonds = aug.n_bonds
        assert m_bonds <= 14
        keys = code_partition_keys(aug)
        omegas = first_omegas(aug, keys)
        for kind in ("A", "B", "C"):
            f = (
                _family_c(model.q)
                if kind == "C"
                else make_family(kind, model.q)
            )
            R = _seeded_region(rng, model) or model.vertices[:1]
            g = {key: conditional_expectation(aug, omega, [(f, R)])
                 for key, omega in omegas.items()}
            values = np.array([g[key] for key in keys])
            codes = np.arange(2**m_bonds)
            for e in range(m_bonds):
                closed = codes[(codes >> e) & 1 == 0]
                margin = float(
                    np.min(values[closed | (1 << e)].real - values[closed].real)
                )
                worst = min(worst, margin)
    _announce(
        "6 bond-lattice-monotonicity",
        worst >= -TOL_PER_CONFIG,
        f"worst g_R increase under opening one bond: {worst:.3e}",
    )


def test_criterion_7_mc_agreement():
    start = time.perf_counter()
    model = torus_grid(3, 3, q=3, J=0.5, h=0.2)
    f = make_family("A", 3)
    factors = [(f, ("s00", "s01"))]
    exact = potts_expectation(model, factors)  # 3^9 = 19683 states
    hits = 0
    for seed in range(100):
        est = estimate_pooled(model, factors, sweeps=100_000, seed=seed)
        if abs(est.mean - exact) <= 4 * est.std_error:
            hits += 1
    elapsed = time.perf_counter() - start
    _announce(
        "7 mc-agreement",
        hits >= 95 and elapsed < 120.0,
        f"{hits}/100 runs within 4 standard errors, {elapsed:.1f}s",
    )


def test_criterion_8_fuzzer_clean():
    start = time.perf_counter()
    result = fuzz(
        FuzzConfig(
            trials=10_000,
            seed=20250809,
            q_values=(2, 3, 4, 5),
            n_range=(1, 5),
            J_range=(0.0, 3.0),
            h_range=(0.0, 3.0),
        )
    )
    elapsed = time.perf_counter() - start
    _announce(
        "8 fuzzer",
        not result.failures and elapsed < 300.0,
        f"{result.trials_run} trials, {result.checks_run} checks, "
        f"{len(result.failures)} violations, "
        f"{result.skipped_not_certified} gated skips, {elapsed:.1f}s",
    )


def test_criterion_9_field_free_relaxation(suite):
    rng = np.random.default_rng(2024_09)
    field_free = [m for m in suite if all(h == 0.0 for h in m.h)][:20]
    assert len(field_free) == 20
    worst = math.inf
    n_checks = 0
    for model in field_free:
        base = make_family("A", model.q).values
        f = SpinFunction(tuple(base[(x - 1) % model.q] for x in range(model.q)))
        report = check_Fq_i(f, 0, M=16, tol=TOL_MEMBERSHIP)
        assert report.in_Fq and report.in_Fq_i is None  # in F_q \ F_q^0
        R = _seeded_region(rng, model) or model.vertices[:1]
        S = _seeded_region(rng, model)
        checks = [
            verify_real_nonneg(model, f, R),
            verify_gks_pair(model, f, R, S),
        ]
        checks += [
            verify_monotone(model, f, R, edge)
            for edge in model.edges
        ]
        for rep in checks:
            worst = min(worst, rep.margin)
            n_checks += 1
    _announce(
        "9 field-free-relaxation",
        worst >= -TOL_CHECK,
        f"{n_checks} checks on 20 field-free instances, worst margin {worst:.3e}",
    )
