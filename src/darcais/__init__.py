"""Exact computation and certification for D'Arcais polynomials.

The package computes the polynomials P_n(x) defined by the Euler-product
expansion prod (1 - q^m)^(-x) = sum P_n(x) q^n, verifies the hook-length
identities satisfied by their shifts Q_n(x) = P_n(x + 1) over several
independent computation routes, and certifies analytic properties of the
coefficient sequences: Polya frequency (via Toeplitz minors and the
Aissen-Schoenberg-Whitney equivalence), real-rootedness and root
location (Descartes bisection), Hurwitz stability (fraction-free Routh
table), and coefficient shape (unimodality, log-concavity,
ultra-log-concavity).

Every computation is exact: arbitrary-precision integers and rationals
throughout, no floating point on any certification path.
"""

from .exactnum import ExactPoly, poly_divmod
from .partitions import (
    HookMultiset,
    HookSelector,
    Partition,
    enumerate_partitions,
)
from .pf_tnn import (
    MinorSpec,
    MinorWitness,
    PFVerdict,
    ToeplitzSeq,
    contiguous_minor_spec,
    pf_test,
    toeplitz_minor,
)
from .polynomials import (
    DArcaisRecord,
    DEFAULT_ROUTE_BOUNDS,
    binomial_sum,
    darcais_poly,
    darcais_record,
    hook_sum_full,
    hook_sum_trivial_arm,
    hook_sum_trivial_leg,
    q_poly,
    q_scaled_coeffs,
    scaled_coeffs,
    seed_records,
    verify_identity,
)
from .reports import ARTIFACT_VERSION, CertReport
from .rootcert import (
    RootAtEndpointError,
    RootInterval,
    RouthVerdict,
    all_real_roots_negative,
    count_real_roots,
    hurwitz_stable,
    is_real_rooted,
    is_square_free,
    isolate_real_roots,
)
from .shape import (
    InternalConsistencyError,
    ShapeVerdict,
    is_log_concave,
    is_ultra_log_concave,
    is_unimodal,
    shape_report,
    shape_summary,
)

__version__ = ARTIFACT_VERSION

__all__ = [
    "ARTIFACT_VERSION",
    "CertReport",
    "DArcaisRecord",
    "DEFAULT_ROUTE_BOUNDS",
    "ExactPoly",
    "HookMultiset",
    "HookSelector",
    "InternalConsistencyError",
    "MinorSpec",
    "MinorWitness",
    "PFVerdict",
    "Partition",
    "RootAtEndpointError",
    "RootInterval",
    "RouthVerdict",
    "ShapeVerdict",
    "ToeplitzSeq",
    "all_real_roots_negative",
    "binomial_sum",
    "contiguous_minor_spec",
    "count_real_roots",
    "darcais_poly",
    "darcais_record",
    "enumerate_partitions",
    "hook_sum_full",
    "hook_sum_trivial_arm",
    "hook_sum_trivial_leg",
    "hurwitz_stable",
    "is_log_concave",
    "is_real_rooted",
    "is_square_free",
    "is_ultra_log_concave",
    "is_unimodal",
    "isolate_real_roots",
    "pf_test",
    "poly_divmod",
    "q_poly",
    "q_scaled_coeffs",
    "scaled_coeffs",
    "seed_records",
    "shape_report",
    "shape_summary",
    "toeplitz_minor",
    "verify_identity",
]
