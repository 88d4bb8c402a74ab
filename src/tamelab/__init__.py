"""tamelab: exact arithmetic for tame congruence-group constructions.

Library layout:

- ``padic``    fixed-precision scalars mod p^N, truncated power series,
               Hensel square roots, p-adic log/exp, exponent ratios
- ``matgrp``   matrices over those rings: commutators, Z_p powering,
               truncated matrix exp/log, congruence depth, generators
- ``pcentral`` finite quotients as pc sequences, p-central series, uniformity,
               the commutator-limit Lie bracket
- ``liealg``   structure-constant Lie algebras over Q: Killing form,
               radical, toral / pluperfect verdicts, inertial certificates
- ``certify``  group-side inertial certificates, local plans, identity suites
- ``bounds``   splitting bounds, Selmer dimension, ramification budget,
               Golod-Shafarevich negativity
- ``cli``      the ``tamelab`` command
"""

import importlib

# Each public name loads its submodule on first use, so importing one
# subsystem (say `tamelab.liealg`) does not load the others.
_EXPORTS = {
    "errors": ["TamelabError"],
    "padic": [
        "PadicScalar", "ScalarRing", "SeriesElement", "SeriesRing",
        "alpha_ratio", "hensel_sqrt", "pexp", "plog",
    ],
    "matgrp": [
        "RingMatrix", "commutator", "congruence_depth", "int_power",
        "mat_exp", "mat_log", "sl_standard_generators", "zp_power",
    ],
    "pcentral": [
        "FiniteQuotientGroup", "PCentralChain", "closure", "dictionary_bracket",
        "pcentral_series", "uniformity_check",
    ],
    "liealg": [
        "LieAlgebra", "classify", "inertial_solve", "inertial_span",
        "is_toral_sampled",
    ],
    "certify": [
        "GroupInertialCertificate", "LocalPlan", "build_local_plan",
        "brute_search_certificate", "quaternion_uniform_suite",
        "sl2_relation_suite", "slm_series_suite", "stable_generation_audit",
        "verify_certificate",
    ],
    "bounds": [
        "GSInput", "SplittingBoundInput", "gs_negative", "ramification_budget",
        "selmer_dim", "splitting_bound",
    ],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "report"}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
