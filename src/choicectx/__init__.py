"""Contextuality, revealed preference, and logical Bell inequalities for
binary empirical and choice models.

The package is organized around one representation: a scenario (variables
plus a cover of contexts) carrying either a possibilistic support table or
per-context probability distributions.  On top of that it decides global
sectionhood and the contextuality hierarchy, the weak axiom of revealed
preference and no-signalling, cover-shape properties, and logical Bell
inequality violations, always returning witnesses for negative verdicts.

``import choicectx`` loads none of its submodules.  Each public name is
imported from its home submodule the first time it is used (PEP 562) and
kept here, so later lookups cost no more than an eager import's.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it is home to
_EXPORTS = {
    "axioms": (
        "AuditReport",
        "TheoremCheck",
        "audit",
        "check_no_signalling",
        "check_weak_axiom",
        "intersection_closed",
        "is_choice_structure",
        "overlap_property",
    ),
    "catalog": (
        "bell_scenario",
        "double_headed_coin",
        "gen_random_model",
        "hardy_distribution",
        "hardy_relabeled",
        "hardy_table",
        "luce_raiffa",
        "pr_box",
        "pr_box_distribution",
        "warp_contextual",
        "warp_noncontextual",
        "warp_signalling",
    ),
    "contextuality": (
        "Classification",
        "Kind",
        "classify",
        "global_sections_backtracking",
        "global_sections_bruteforce",
        "is_global_section",
    ),
    "core": (
        "EXHAUSTIVE_BOUND_DEFAULT",
        "Assignment",
        "Context",
        "Event",
        "PossibilisticModel",
        "Scenario",
        "Verdict",
        "canonical_context",
        "format_event",
        "validate_model",
    ),
    "errors": (
        "ChoiceCtxError",
        "DomainMismatch",
        "ModelSemanticError",
        "ModelSyntaxError",
        "NotContradictory",
        "NotMeasurable",
        "PropositionSyntaxError",
        "TimeBudgetExceeded",
        "TooLarge",
        "UnboundVariable",
        "UnknownContext",
        "UnknownVariable",
        "VariableNotInContext",
    ),
    "modelio": ("parse_model", "serialize_model"),
    "probabilistic": (
        "SUPPORT_EPSILON",
        "ProbabilisticModel",
        "bell_violation",
        "eval_probability",
        "jointly_contradictory",
        "strong_contextuality_via_bell",
        "support_propositions",
        "support_reduction",
        "uniform_over_support",
        "validate_probabilistic",
    ),
    "proplang": (
        "And",
        "Const",
        "Not",
        "Or",
        "Proposition",
        "Var",
        "measurement_context",
        "parse_formula",
        "parse_proposition",
        "parse_propositions",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        # a submodule: importing it binds it here, as `import choicectx.core` does
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
