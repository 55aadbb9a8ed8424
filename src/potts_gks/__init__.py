"""Potts correlation-inequality verification toolkit.

Exact means of the q-state ferromagnetic Potts model with external field
by variable elimination, its ghost-vertex random-cluster representation
and coupling, moment-based function classes, inequality verifiers with a
fuzzing harness, and a cluster Monte Carlo sampler for instances beyond
exact range.
"""

from .function_classes import (
    MembershipReport,
    check_Fq,
    check_Fq_i,
    make_family,
    moments,
    spin_function_from_spec,
)
from .mc import Estimate, estimate_pooled
from .model import (
    EnumerationTooLarge,
    ModelError,
    PottsModel,
    SpinFunction,
    log_partition_function,
    potts_distribution,
    potts_expectation,
)
from .random_cluster import (
    AugmentedGraph,
    augment,
    conditional_expectation,
    coupled_spin_marginal,
    event_Z,
    rc_expectation,
    rc_probability,
)
from .verify import (
    FuzzConfig,
    FuzzResult,
    NotCertified,
    VerificationReport,
    fuzz,
    verify_disjoint_support,
    verify_gks_pair,
    verify_monotone,
    verify_real_nonneg,
)

__version__ = "0.1.0"
