"""The package surface: public names, lazy layers, the CLI help text,
which module knows a metric's form and which walks an overlap class's cells.

`import abcc` runs only `core` and `errors`; the other layers are lazy
modules whose bodies run on first attribute access. These tests pin which
layers each command runs, that the layers bind each other as modules,
that every public name still resolves to its layer's object and is read
by a layer, the README's library example or a paper check, that the
example runs, and that the parser's help text is unchanged.
"""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import abcc
from abcc import core, metrics, noise, rules
from abcc.cli import build_parser

PUBLIC = [
    "AbccRule", "AlternativeSet", "Committee", "DistanceMetric", "NoiseModel", "Profile",
    "Universe", "accuracy_classify", "accuracy_trial", "av_refutation_model",
    "check_metric_axioms", "convergence_curve", "core", "default_universe", "errors",
    "expected_gap", "experiments", "feasible_pairs", "gap_analysis", "has_top_jump",
    "hierarchy_report", "is_alternative_independent", "is_majority_concentric", "is_natural",
    "is_nontrivial", "is_similarity", "jump_counterexample", "level_structure",
    "make_level_model", "make_metric", "make_mp", "make_rule", "metrics", "mle_committees",
    "noise", "oracle", "parse_profile", "profile_score", "random_metric",
    "robustness_verdict", "rules", "sample_profile", "sample_size_bound",
    "staggered_level_model", "taxonomy_report", "uv_bijection", "vote_score", "winners",
]

# Runs one CLI command in this interpreter, then prints, as JSON, the abcc
# modules whose bodies have run (a lazy module that was never touched is
# still of its private lazy type; `type()` reads no attribute, so the check
# loads nothing itself) and whether `dataclasses` was imported: it generates
# and execs each class's methods when its layer loads.
LOADED = """
import contextlib, io, json, sys, types
from abcc.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
loaded = [name for name, module in sys.modules.items()
          if name.startswith("abcc.") and type(module) is types.ModuleType]
print(json.dumps([code, sorted(name[5:] for name in loaded), "dataclasses" in sys.modules]))
"""

BASE = ["cli", "core", "errors"]
LAZY = ["experiments", "metrics", "noise", "oracle", "rules"]
ALL_LAYERS = BASE + LAZY
MP = ["--model", "mp", "--p", "3/4", "--m", "3", "--ground", "a,b"]
LEVEL = ["--model-file", "{model}"]
CONVERGE = ["converge", "--rule", "av", "--n-grid", "3", "--trials", "2", "--seed", "1"]
COMMANDS = [
    (["--version"], BASE),
    (["--help"], BASE),
    (["winners", "--rule", "av", "--k", "2", "--profile", "{votes}"], BASE + ["rules"]),
    (["score", "--rule", "pav", "--committee", "a,b", "--profile", "{votes}"], BASE + ["rules"]),
    (["check-metric", "--metric", "jaccard", "--m", "3"], BASE + ["metrics"]),
    (["taxonomy", "--metric", "jaccard", "--m", "3", "--k", "2"], BASE + ["metrics", "rules"]),
    (["sample", *MP, "--n", "5", "--seed", "1"], BASE + ["noise"]),
    (["sample", *LEVEL, "--n", "5", "--seed", "1"], BASE + ["metrics", "noise"]),
    (["robust", "--rule", "av", "--metric", "jaccard", "--m", "3", "--k", "2"],
     BASE + ["metrics", "oracle", "rules"]),
    (["robust", "--rule", "cc", "--metric", "example2", "--m", "3", "--k", "2"],
     BASE + ["metrics", "noise", "oracle", "rules"]),
    (["counterexample", "--rule", "cc", "--m", "3", "--k", "2"],
     BASE + ["metrics", "noise", "oracle", "rules"]),
    (["hierarchy", "--rules", "av", "--metrics", "jaccard", "--m", "3", "--k", "2"],
     BASE + ["experiments", "metrics", "oracle", "rules"]),
    ([*CONVERGE, *MP], BASE + ["experiments", "noise", "rules"]),
    ([*CONVERGE, *LEVEL], BASE + ["experiments", "metrics", "noise", "rules"]),
    (["mle-check", "--p", "3/4", "--m", "3", "--k", "1", "--profiles", "1", "--seed", "1"],
     BASE + ["experiments", "rules"]),
]


@pytest.mark.parametrize(
    "argv, layers", COMMANDS,
    ids=[
        argv[0].strip("-") + ("-level" if "{model}" in argv else "-not-robust" * ("example2" in argv))
        for argv, _ in COMMANDS
    ],
)
def test_each_command_runs_only_its_layers(argv, layers, tmp_path):
    votes = tmp_path / "votes.txt"
    votes.write_text("alternatives: a,b,c\na\na,b\n", encoding="utf-8")
    model = tmp_path / "model.json"
    metric, ground = metrics.make_metric("jaccard", 3), core.Committee(core.AlternativeSet(0b11, 3), 2)
    level_model = noise.staggered_level_model(metric, ground)
    model.write_text(json.dumps(noise.model_to_json(level_model)), encoding="utf-8")
    argv = [arg.format(votes=votes, model=model) for arg in argv]
    if argv[0] not in ("--version", "--help"):
        argv += ["--out", str(tmp_path / "out")]
    src = str(Path(abcc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], capture_output=True, text=True, env=env, check=True
    )
    code, loaded, dataclasses = json.loads(result.stdout)
    assert code == 0
    assert loaded == sorted(layers)
    assert not dataclasses


def test_layers_bind_each_other_as_lazy_modules():
    # `from .noise import name` at import time loads `noise` wherever its
    # importer loads; `from . import noise` binds the lazy module, whose body
    # runs only when a command reaches one of its names
    eager = [
        f"{layer}.py:{node.lineno}"
        for layer in LAZY
        for node in ast.parse(Path(abcc.__file__).with_name(f"{layer}.py").read_text("utf-8")).body
        if isinstance(node, ast.ImportFrom) and node.level
        and node.module not in (None, "core", "errors")
    ]
    assert eager == []


def test_public_names_are_pinned_and_resolve_to_their_layer():
    assert abcc.__all__ == PUBLIC
    for name in PUBLIC:
        value = getattr(abcc, name)
        if name in ALL_LAYERS:
            assert value is sys.modules[f"abcc.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value
    namespace = {}
    exec("from abcc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    with pytest.raises(AttributeError):
        abcc.no_such_name


def test_kind_lists_are_shared_and_every_listed_kind_builds():
    assert core.RULE_KINDS is rules.RULE_KINDS
    assert core.METRIC_KINDS is metrics.METRIC_KINDS
    assert core.RNG_SCHEME is noise.RNG_SCHEME
    params = {"thiele": {"weights": [1, 1]}, "p_geometric": {"p": Fraction(1, 2)}}
    for kind in core.RULE_KINDS:
        if kind != "custom":
            rule = rules.make_rule(kind, 4, 2, **params.get(kind, {}))
            assert (rule.m, rule.k) == (4, 2)
    for kind in core.METRIC_KINDS:
        if kind != "custom":
            assert metrics.make_metric(kind, 3).m == 3


# sha256 of the help text at 80 columns, taken before the layers became lazy.
HELP_SHA256 = {
    "": "8aebeef45fdfde664be0825a3c336e54c7fe8e529811af95bcc38ac5e8e3e1cf",
    "score": "fe8286411d5c435061da43cac445762aff3b81c91e64b0667761ed28112c4e53",
    "winners": "e4ec52b139ae8248198b22393d4fe2575441a32611e60ac2a715d8ae3b130342",
    "check-metric": "351f0f93a32b81c0dfd91ee44b7b291be11314c2eb6abcbca6ef8cc9fe599a55",
    "taxonomy": "e5634cdc64b5b752b06c507de21cce937e7d21e31c652a4adbe74afdebd45c69",
    "robust": "dbdcd92976fad602ff2dc774c68ff1c15b5e03b9254f739e270e102766d361be",
    "counterexample": "3906dcddac4f9a8a8b5300a1e52dc819fa9a1209b52cc16f069ded107a5e072c",
    "hierarchy": "60ca969711b2cd334e5929f59e943c8343bd01a9ef54b9f80928927e5d84369d",
    "sample": "9ae92d67281fcd7d4c459865d8cd35c1989517a6f602a6129938b9610c20cfa2",
    "converge": "d56d55db98ab61463edbe1b0d47e0c0c806b6183aace8c39d92bd2fb6704cef0",
    "mle-check": "a862d4b3758e5d10ed6ea0fe933ee59377af2dcc0d214e6fbb4558233cb24d5c",
}


def test_help_text_is_unchanged(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    (commands,) = [action.choices for action in parser._subparsers._group_actions]
    texts = {"": parser.format_help()}
    texts.update((name, sub.format_help()) for name, sub in commands.items())
    assert {
        name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()
    } == HELP_SHA256


def test_every_error_class_is_raised():
    # an error class that nothing raises documents a failure that cannot
    # happen; a base class is raised through its subclasses
    package = Path(abcc.__file__).parent
    classes = [
        node for node in ast.parse((package / "errors.py").read_text("utf-8")).body
        if isinstance(node, ast.ClassDef)
    ]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    raised = {
        (node.exc.func if isinstance(node.exc, ast.Call) else node.exc).id
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None
        and isinstance(node.exc.func if isinstance(node.exc, ast.Call) else node.exc, ast.Name)
    }
    assert [node.name for node in classes if node.name not in bases | raised] == []


def readme_example() -> str:
    """The code block under the README's "Library example" heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    return readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    env = {**os.environ, "PYTHONPATH": str(Path(abcc.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", readme_example()], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr


def test_every_public_name_has_a_caller():
    # a name that `abcc` exports is read by a layer, by the README's library
    # example or by a paper check; one that only tests read is reference
    # code, and belongs in tests/reference.py
    package, root = Path(abcc.__file__).parent, Path(__file__).parents[1]
    sources = [
        *(path.read_text("utf-8") for path in package.glob("*.py") if path.name != "__init__.py"),
        readme_example(),
        (root / "tests" / "test_acceptance.py").read_text("utf-8"),
    ]
    read = {  # names and attributes read; a `def` or `class` line binds, it does not read
        node.id if isinstance(node, ast.Name) else node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert sorted(set(abcc._LAYER_OF) - read) == []


def test_only_metrics_reads_a_metrics_private_state():
    # a signature or table metric is told apart by what `metrics` returns
    # (a level structure's `cells`), never by the fields that hold its form
    private = re.compile(r"\._(signature|table|default|ints|axioms|level_cache|integers)\b")
    readers = [
        f"{path.name}:{number}"
        for path in sorted(Path(abcc.__file__).parent.glob("*.py"))
        if path.name != "metrics.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if private.search(line)
    ]
    assert readers == []


def test_only_rules_walks_the_cells_of_an_overlap_class():
    # whether a class has a vote that scores U and V apart is asked of
    # `rules.moving_classes`, never answered by a walk of its own
    walk = re.compile(r"\b_?overlap_cells\b")
    readers = [
        f"{path.name}:{number}"
        for path in sorted(Path(abcc.__file__).parent.glob("*.py"))
        if path.name != "rules.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if walk.search(line)
    ]
    assert readers == []
