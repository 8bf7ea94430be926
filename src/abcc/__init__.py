"""Approval-based committee voting rules, committee noise models, and
exact + Monte Carlo robustness verifiers.

The public names (`__all__`) are the rules, metrics, noise models,
verdicts and recovery experiments that a command, the README's library
example or a paper check (`tests/test_acceptance.py`) reads; brute-force
oracles that only tests read live in `tests/reference.py`.

`import abcc` runs `core` and `errors`. The other layers are lazy modules:
each one's body runs when one of its attributes is first read, so a
command loads only the layers it uses. The layers bind each other the
same way (`from . import metrics`) and read a name off its layer where
they use it, so loading one layer loads no other. A first load costs the
compile and run of that body and no more: its classes are `NamedTuple`s
and plain classes whose value methods `core.Frozen` derives from one
field tuple, and no layer imports `dataclasses`, which generates and
execs the methods of every class it decorates.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from . import core, errors

_LAZY = ("rules", "metrics", "noise", "oracle", "experiments")
for _layer in _LAZY:
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_layer] = _module
    _spec.loader.exec_module(_module)

_LAYER_OF = {
    name: layer
    for layer, names in {
        "core": "AlternativeSet Committee Profile Universe default_universe feasible_pairs "
        "parse_profile",
        "rules": "AbccRule has_top_jump is_nontrivial make_rule profile_score vote_score winners",
        "metrics": "DistanceMetric check_metric_axioms is_alternative_independent "
        "is_majority_concentric is_natural is_similarity level_structure make_metric "
        "random_metric taxonomy_report",
        "noise": "NoiseModel av_refutation_model make_level_model make_mp sample_profile "
        "staggered_level_model jump_counterexample",
        "oracle": "accuracy_classify expected_gap gap_analysis robustness_verdict "
        "sample_size_bound uv_bijection",
        "experiments": "accuracy_trial convergence_curve hierarchy_report mle_committees",
    }.items()
    for name in names.split()
}
__all__ = sorted([*_LAYER_OF, "core", "errors", *_LAZY])


def __getattr__(name):
    """A public name, read from its layer (which loads on first use)."""
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)
