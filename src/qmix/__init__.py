"""Quaternionic density matrices and the proper/improper mixture split.

Quaternionic matrices are stored as complex pairs M = M_alpha + j*M_beta.
The complex projection P(M) = M_alpha partitions density matrices into
classes with a unique complex member each; proper mixtures are the
beta = 0 members, improper mixtures the rest.  The package provides the
scalar and matrix algebra, validation, lifting and purification, unitary
dynamics under a constant generator (U(t) = exp(-tH)) with its projected
form, bipartite machinery (Schmidt terms, partial trace, nonselective
projective update), a measurement scenario that distinguishes the two
mixture kinds by a quaternionic observable, and a CLI with JSON matrix
files.
"""

from .bipartite import (
    BipartiteState,
    ProjectorFamily,
    lueders_nonselective,
    measurement_interaction,
    partial_trace,
    schmidt,
)
from .density import (
    CDensity,
    MixtureKind,
    Observable,
    QDensity,
    block_purify,
    complex_projection,
    discriminating_observable,
    embed_proper,
    expectation,
    lift,
    proper_tolerance,
    purify,
    random_density,
    rank_bounds_check,
    validate,
)
from .dynamics import (
    Generator,
    Propagator,
    evolve,
    integrate,
    partition_witness,
    projected_evolution,
    projected_rate_check,
    random_generator,
    time_ordered,
)
from .qmatrix import (
    QMatrix,
    chi,
    chi_inverse,
    chi_membership_deviation,
    eigvals_hermitian,
    expm_q,
    frobenius_norm,
    hermiticity_deviation,
    is_positive_semidefinite,
    max_abs,
    rank_q,
    real_trace,
)
from .quaternion import Quaternion
from .scenario import (
    PropositionSummary,
    ScenarioReport,
    check_propositions,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "CDensity",
    "Generator",
    "MixtureKind",
    "Observable",
    "Propagator",
    "PropositionSummary",
    "ProjectorFamily",
    "QDensity",
    "QMatrix",
    "Quaternion",
    "ScenarioReport",
    "block_purify",
    "check_propositions",
    "chi",
    "chi_inverse",
    "chi_membership_deviation",
    "complex_projection",
    "discriminating_observable",
    "eigvals_hermitian",
    "embed_proper",
    "evolve",
    "expectation",
    "expm_q",
    "frobenius_norm",
    "hermiticity_deviation",
    "integrate",
    "is_positive_semidefinite",
    "lift",
    "lueders_nonselective",
    "max_abs",
    "measurement_interaction",
    "partial_trace",
    "partition_witness",
    "proper_tolerance",
    "projected_evolution",
    "projected_rate_check",
    "purify",
    "random_density",
    "random_generator",
    "rank_bounds_check",
    "rank_q",
    "real_trace",
    "run_scenario",
    "schmidt",
    "time_ordered",
    "validate",
]
