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

Each exported name is imported from its module on first use (PEP 562),
so a process imports only the modules it runs: a `shape`, `poly` or
`verify` job loads neither the rational arithmetic nor the root and PF
certificates, a `shape` or `poly` job, which walks no partitions, does
not load `partitions` or `enum` either, and only a `shape` job loads the
shape predicates.  `fractions` is loaded only for a number that is not
an integer: `roots` and `pf` jobs on integer input never load it.
"""

from importlib import import_module

from .reports import ARTIFACT_VERSION

__version__ = ARTIFACT_VERSION

# exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "partitions": ("HookMultiset", "HookSelector", "Partition", "enumerate_partitions"),
        "pf_tnn": (
            "MinorSpec", "MinorWitness", "PFVerdict", "ToeplitzSeq",
            "contiguous_minor_spec", "pf_test", "toeplitz_minor",
        ),
        "polynomials": (
            "DArcaisRecord", "DEFAULT_ROUTE_BOUNDS", "darcais_record", "q_scaled_coeffs",
            "scaled_coeffs", "seed_records", "verify_identity",
        ),
        "reports": ("ARTIFACT_VERSION", "CertReport", "InternalConsistencyError"),
        "rootcert": (
            "RootAtEndpointError", "RootInterval", "RouthVerdict",
            "all_real_roots_negative", "count_real_roots", "hurwitz_stable",
            "is_real_rooted", "is_square_free", "isolate_real_roots",
        ),
        "shape": (
            "ShapeVerdict", "is_log_concave", "is_ultra_log_concave", "is_unimodal",
            "shape_report", "shape_summary",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value  # bound now, so later lookups skip this function


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
