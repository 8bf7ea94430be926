"""Command-line surface: score, winners, check-metric, taxonomy, robust,
counterexample, hierarchy, sample, converge, mle-check.

Exit codes: 0 ok, 2 parse/input error, 3 enumeration or sampling cap, 4 invalid
metric, 5 no witness exists, 6 bad model parameter. Exact rationals
cross this boundary as "p/q" strings; --approx (score, converge) switches
to decimals.
Every command that writes result files appends a run manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__, experiments, metrics, noise, oracle, rules
from .core import (
    METRIC_KINDS,
    RNG_SCHEME,
    RULE_KINDS,
    Committee,
    check_classes,
    check_committees,
    check_draws,
    check_sets,
    default_universe,
    format_profile,
    frac_str,
    parse_frac,
    parse_profile,
    read_text,
)
from .errors import (
    AbccError,
    CapExceededError,
    DomainMismatchError,
    InvalidCommitteeSizeError,
    InvalidNoiseParamError,
    InvalidRuleError,
    MetricAxiomError,
    NoCounterexampleError,
    NotMonotonicError,
    NotNormalizedError,
    PreconditionError,
    ProfileParseError,
    SizeMismatchError,
)

EXIT_PARSE = 2
EXIT_CAPS = 3
EXIT_BAD_METRIC = 4
EXIT_NO_WITNESS = 5
EXIT_BAD_MODEL = 6


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]+", "-", name).strip("-")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Output directory, manifest bookkeeping, and format flags for one command."""

    def __init__(self, args):
        self.args = args
        self.out = Path(getattr(args, "out", ".") or ".")
        self.approx = getattr(args, "approx", False)
        self.outputs: list[str] = []
        self.inputs: dict[str, str] = {}
        self.started = datetime.now(timezone.utc).isoformat()
        self.t0 = time.monotonic()

    def track_input(self, path) -> Path:
        path = Path(path)
        try:
            self.inputs[str(path)] = _sha256(path)
        except OSError as exc:
            raise ProfileParseError(f"cannot read {path}: {exc.strerror}") from None
        return path

    def write(self, name: str, *pieces: str) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        self.outputs.append(str(path))
        return path

    def write_json(self, name: str, doc, known=None) -> Path:
        return self.write(name, *_json_pieces(doc, known), "\n")

    def finish_manifest(self):
        """Append one manifest record of the inputs and outputs of the run."""
        config = {
            key: value
            for key, value in sorted(vars(self.args).items())
            if key != "func" and value is not None
        }
        canonical = json.dumps(config, sort_keys=True, default=str)
        record = {
            "command": " ".join(sys.argv),
            "config": json.loads(canonical),
            "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
            "seed": getattr(self.args, "seed", None),
            "tool_version": __version__,
            "rng": RNG_SCHEME,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "started": self.started,
            "finished": datetime.now(timezone.utc).isoformat(),
            "wall_seconds": round(time.monotonic() - self.t0, 6),
        }
        self.out.mkdir(parents=True, exist_ok=True)
        with open(self.out / "manifest.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _pretty_json(doc, known=None) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)`, byte for byte, for a
    document of JSON values with string keys.

    The standard encoder takes its pure-Python path whenever it indents.
    Here strings go through the C escaper, and each list or tuple object is
    rendered once per depth: result files share one label list per
    committee across all the rows that name it. `known` may map
    (id, depth) of values in `doc` to their text, which is then used as is;
    it is not changed.
    """
    return "".join(_json_pieces(doc, known))


def _json_pieces(doc, known=None):
    """The text of `_pretty_json(doc, known)`, a dict's top-level items one by one."""
    rendered = dict(known or ())

    def render(value, depth):
        kind = type(value)
        if kind is str:
            return encode_basestring_ascii(value)
        if kind is bool:
            return "true" if value else "false"
        if kind is int:
            return int.__repr__(value)
        inner = "\n" + "  " * (depth + 1)
        if isinstance(value, dict):
            if not value:
                return "{}"
            items = []
            for key in sorted(value):
                item = value[key]  # a list seen before needs no call
                text = rendered.get((id(item), depth + 1)) or render(item, depth + 1)
                items.append(encode_basestring_ascii(key) + ": " + text)
            return "{" + inner + ("," + inner).join(items) + inner[:-2] + "}"
        if isinstance(value, (list, tuple)):
            key = (id(value), depth)
            text = rendered.get(key)
            if text is None:
                if not value:
                    text = "[]"
                else:
                    items = [render(item, depth + 1) for item in value]
                    text = "[" + inner + ("," + inner).join(items) + inner[:-2] + "]"
                rendered[key] = text
            return text
        return json.dumps(value)  # None, floats, and subclasses of str and int

    if not isinstance(doc, dict) or not doc:
        yield render(doc, 0)
        return
    for i, key in enumerate(sorted(doc)):
        yield (",\n  " if i else "{\n  ") + encode_basestring_ascii(key) + ": "
        yield rendered.get((id(doc[key]), 1)) or render(doc[key], 1)
    yield "\n}"


# ---------------------------------------------------------------------------
# Shared argument resolution.

def _universe(m):
    """default_universe for --m, with a missing or negative value as an input error.

    The commands that sweep all 2^m sets call `check_sets` first, so an
    m over the cap is refused before its labels or a rule table are built.
    """
    if m is None or m < 0:
        raise ProfileParseError(f"--m must be a non-negative integer, got {m}")
    return default_universe(m)


def _committee(universe, labels: str) -> Committee:
    """The committee named by comma-separated, pairwise distinct labels."""
    names = labels.split(",")
    if len(set(names)) != len(names):
        raise ProfileParseError(f"duplicate label in {labels!r}")
    try:
        members = universe.set_of(names)
    except KeyError as exc:
        raise ProfileParseError(exc.args[0]) from None
    return Committee(members, members.size)


def _resolve_rule(args, m: int, k: int, runner: Runner):
    """The rule of --rule or --rule-file for committees of k among m alternatives."""
    if getattr(args, "rule_file", None):
        rule = rules.load_rule_file(runner.track_input(args.rule_file))
        if (rule.m, rule.k) != (m, k):
            raise DomainMismatchError(f"rule file has m={rule.m}, k={rule.k}; need m={m}, k={k}")
        return rule
    spec = args.rule
    if spec is None:
        raise ProfileParseError("no rule given (use --rule or --rule-file)")
    kind, _, param = spec.partition(":")
    if kind == "p_geometric":
        return rules.make_rule(kind, m, k, p=parse_frac(param or "1/2"))
    if kind == "thiele":
        weights_arg = param or getattr(args, "weights", None)
        if not weights_arg:
            raise ProfileParseError("thiele requires --weights or thiele:w1;w2;...")
        weights = [parse_frac(w) for w in re.split(r"[;,]", weights_arg)]
        return rules.make_rule(kind, m, k, weights=weights)
    if kind == "custom":
        raise ProfileParseError("custom rules need --rule-file")
    return rules.make_rule(kind, m, k)


def _builtin_metric(name: str, m: int):
    try:
        return metrics.make_metric(name, m)
    except ValueError as exc:
        raise ProfileParseError(str(exc)) from None


def _resolve_metric(args, m: int, runner: Runner):
    if args.metric_file:
        return metrics.load_metric_file(runner.track_input(args.metric_file), m)
    if args.metric is None:
        raise ProfileParseError("no metric given (use --metric or --metric-file)")
    return _builtin_metric(args.metric, m)


def _resolve_model(args, runner: Runner):
    if args.model_file:
        return noise.load_model_file(runner.track_input(args.model_file), args.m)
    universe = _universe(args.m)
    if args.ground is None:
        raise ProfileParseError("--ground is required without --model-file")
    ground = _committee(universe, args.ground)
    if args.k is not None and ground.k != args.k:
        raise ProfileParseError(f"ground has {ground.k} members but --k {args.k}")
    if args.model == "mp":
        if args.p is None:
            raise ProfileParseError("model mp requires --p")
        return noise.make_mp(parse_frac(args.p), universe, ground)
    if args.model == "level":
        metric = _resolve_metric(args, args.m, runner)
        if not args.probs:
            raise ProfileParseError("model level requires --probs p0,p1,...")
        probs = [parse_frac(q) for q in args.probs.split(",")]
        return noise.make_level_model(metric, ground, probs, universe)
    raise ProfileParseError(f"unknown model {args.model!r}")


def _sampling_model(args, votes: int, runner: Runner):
    """The model of `sample` or `converge`, whose largest draw is `votes` votes.

    The draw is checked against the cap on --m before the labels or the
    model are built, and on the model's own m when it comes from a file.
    """
    if args.m is not None:
        check_draws(votes, args.m)
    model = _resolve_model(args, runner)
    check_draws(votes, model.m)
    return model


def _load_profile(args, runner: Runner):
    return parse_profile(read_text(runner.track_input(args.profile)))


def _labels(committee, universe):
    return list(committee.labels(universe))


# ---------------------------------------------------------------------------
# Commands.

def cmd_score(args, runner):
    universe, profile = _load_profile(args, runner)
    committee = _committee(universe, args.committee)
    rule = _resolve_rule(args, universe.m, committee.k, runner)
    breakdown = rules.profile_score(rule, committee, profile)
    print(frac_str(breakdown.total, runner.approx))


def cmd_winners(args, runner):
    universe, profile = _load_profile(args, runner)
    rule = _resolve_rule(args, universe.m, args.k, runner)
    result = rules.winners(rule, profile)
    print(json.dumps({"winners": [_labels(c, universe) for c in result]}))


def _resolve_metric_or_report(args, runner, universe):
    """_resolve_metric that prints the rejection of a non-metric table as JSON."""
    try:
        return _resolve_metric(args, args.m, runner)
    except MetricAxiomError as exc:
        doc = {"is_metric": False, "reason": str(exc)}
        if exc.witness:
            doc["witness"] = [list(s.labels(universe)) for s in exc.witness]
        print(json.dumps(doc, sort_keys=True))
        raise


def cmd_check_metric(args, runner):
    check_sets(args.m)
    universe = _universe(args.m)
    metric = _resolve_metric_or_report(args, runner, universe)
    check = metrics.check_metric_axioms(metric)
    doc = {"is_metric": check.ok, "metric": metric.name, "m": metric.m}
    if not check.ok:
        doc["axiom"] = check.axiom
        doc["witness"] = [list(s.labels(universe)) for s in check.witness]
        print(json.dumps(doc, sort_keys=True))
        raise MetricAxiomError(f"{metric.name} violates the {check.axiom} axiom")
    print(json.dumps(doc, sort_keys=True))


def cmd_taxonomy(args, runner):
    check_sets(args.m)
    universe = _universe(args.m)
    metric = _resolve_metric_or_report(args, runner, universe)
    report = metrics.taxonomy_report(metric, args.k)
    doc = {"metric": report.metric_name, "m": report.m, "k": report.k}
    doc.update(report.flags())
    doc["witnesses"] = {
        flag: _witness_doc(witness, universe)
        for flag, witness in report.witnesses.items()
    }
    runner.write_json(f"taxonomy_{_slug(metric.name)}_m{args.m}k{args.k}.json", doc)
    print(json.dumps(doc, sort_keys=True))


def _witness_doc(witness, universe):
    if hasattr(witness, "labels"):  # a set or a committee
        return list(witness.labels(universe))
    if isinstance(witness, tuple):
        return [_witness_doc(x, universe) for x in witness]
    if isinstance(witness, Fraction):
        return frac_str(witness)
    return witness


def cmd_robust(args, runner):
    # a metric file may hold a table, decided over all 2^m sets; a builtin
    # is decided on the overlap classes
    if args.metric_file:
        check_sets(args.m)
    else:
        check_classes(args.m, args.k)
    universe = _universe(args.m)
    rule = _resolve_rule(args, args.m, args.k, runner)
    metric = _resolve_metric(args, args.m, runner)
    verdict = oracle.robustness_verdict(rule, metric)
    doc = oracle.verdict_to_json(verdict, universe)
    stem = f"robust_{_slug(rule.name)}_{_slug(metric.name)}_m{args.m}k{args.k}"
    nested = {}
    if verdict.witness is not None:
        # render the witness model once: at depth 2 its text has 4 more
        # spaces after each newline (no string holds a raw newline), and
        # only that copy is held while the verdict renders
        model = doc["witness"]["model"]
        nested[(id(model), 2)] = _pretty_json(model).replace("\n", "\n    ")
    runner.write_json(stem + ".json", doc, nested)
    if nested:
        (text,) = nested.values()
        runner.write(stem + "_witness_model.json", text.replace("\n    ", "\n") + "\n")
    print(json.dumps({"status": verdict.status}, sort_keys=True))


def cmd_counterexample(args, runner):
    check_sets(args.m)
    universe = _universe(args.m)
    rule = _resolve_rule(args, args.m, args.k, runner)
    package = noise.jump_counterexample(rule)
    # re-verify the package before writing anything
    gap = oracle.expected_gap(rule, package.model, package.ground, package.rival)
    ok, _ = noise.audit_d_monotonic(package.model, package.metric)
    if gap != package.expected_gap or gap >= 0 or not ok:
        raise RuntimeError("counterexample failed re-verification")
    doc = {
        "rule": rule.name,
        "m": args.m,
        "k": args.k,
        "jump": list(package.jump),
        "delta": frac_str(package.delta),
        "expected_gap": frac_str(package.expected_gap),
        "ground": _labels(package.ground, universe),
        "rival": _labels(package.rival, universe),
        "metric": metrics.metric_to_json(package.metric, universe),
        "model": noise.model_to_json(package.model),
    }
    runner.write_json(f"counterexample_{_slug(rule.name)}_m{args.m}k{args.k}.json", doc)
    print(json.dumps({"expected_gap": frac_str(package.expected_gap)}, sort_keys=True))


def cmd_hierarchy(args, runner):
    check_sets(args.m)
    rule_list = [
        _resolve_rule(argparse.Namespace(rule=token), args.m, args.k, runner)
        for token in args.rules.split(",")
    ]
    metric_list = [_builtin_metric(token, args.m) for token in args.metrics.split(",")]
    report = experiments.hierarchy_report(rule_list, metric_list)
    stem = f"hierarchy_m{args.m}k{args.k}"
    runner.write(stem + ".csv", experiments.hierarchy_to_csv(report))
    runner.write_json(stem + ".json", experiments.hierarchy_to_json(report))
    print(experiments.hierarchy_to_csv(report), end="")


def cmd_sample(args, runner):
    model = _sampling_model(args, args.n, runner)
    profile = noise.sample_profile(model, args.n, args.seed)
    text = format_profile(model.universe, profile)
    path = runner.write(f"sample_n{args.n}_seed{args.seed}.txt", text)
    print(str(path))


def cmd_converge(args, runner):
    try:
        n_grid = tuple(int(tok) for tok in args.n_grid.split(","))
    except ValueError:
        raise ProfileParseError(f"--n-grid must list integers, got {args.n_grid!r}") from None
    # every trial's argmax sweeps the C(m, k) committees: refuse too many
    # before the labels, the model or the rule table are built
    if args.model_file is None and args.m is not None and args.ground is not None:
        check_committees(args.m, len(set(args.ground.split(","))))
    model = _sampling_model(args, max(n_grid), runner)  # each trial draws and drops its votes
    check_committees(model.m, model.ground.k)
    rule = _resolve_rule(args, args.m or model.m, model.ground.k, runner)
    config = experiments.TrialConfig(rule, model, n_grid, args.trials, args.seed)
    curve = experiments.convergence_curve(config)
    stem = f"converge_{_slug(rule.name)}_seed{args.seed}"
    runner.write(stem + ".csv", experiments.curve_to_csv(curve, runner.approx))
    runner.write_json(stem + ".json", experiments.curve_to_json(curve, runner.approx))
    print(experiments.curve_to_csv(curve, runner.approx), end="")


def cmd_mle_check(args, runner):
    check_draws(args.n_max, args.m)  # each profile draws and drops its votes
    agree, total = experiments.mle_equivalence_check(
        parse_frac(args.p), args.m, args.k, args.profiles, args.seed, args.n_max
    )
    doc = {
        "p": args.p,
        "m": args.m,
        "k": args.k,
        "profiles": total,
        "equivalent": agree,
    }
    runner.write_json(f"mle_check_m{args.m}k{args.k}_seed{args.seed}.json", doc)
    print(f"equivalent: {agree}/{total}")


# ---------------------------------------------------------------------------
# Parser.

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abcc",
        description="Approval-based committee rules, noise models, and robustness verdicts",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    rule_args = argparse.ArgumentParser(add_help=False)
    rule_args.add_argument("--rule", help=f"rule kind: {', '.join(RULE_KINDS)}")
    rule_args.add_argument("--rule-file", help="custom rule JSON file")
    rule_args.add_argument("--weights", help="thiele weights, comma-separated rationals")
    metric_args = argparse.ArgumentParser(add_help=False)
    metric_args.add_argument("--metric", help=f"metric kind: {', '.join(METRIC_KINDS)}")
    metric_args.add_argument("--metric-file", help="custom metric JSON file")
    model_args = argparse.ArgumentParser(add_help=False, parents=[metric_args])
    model_args.add_argument("--model", choices=["mp", "level"])
    model_args.add_argument("--model-file")
    model_args.add_argument("--p", help="mp parameter in (1/2, 1], e.g. 3/4")
    model_args.add_argument("--probs", help="level probabilities p0,p1,...")
    model_args.add_argument("--ground", help="comma-separated ground committee labels")
    model_args.add_argument("--m", type=int)
    model_args.add_argument("--k", type=int)

    def add(name, func, parents=(), required=(), **kwargs):
        p = sub.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--out", default=".", help="output directory for result files")
        for flag in required:
            p.add_argument(f"--{flag}", type=int, required=True)
        return p

    p = add("score", cmd_score, [rule_args], help="exact score of a committee over a profile")
    p.add_argument("--approx", action="store_true", help="decimal output instead of p/q")
    p.add_argument("--committee", required=True, help="comma-separated labels")
    p.add_argument("--profile", required=True, help="profile text file")

    p = add("winners", cmd_winners, [rule_args], ["k"],
            help="all max-score committees (ties preserved)")
    p.add_argument("--profile", required=True)

    add("check-metric", cmd_check_metric, [metric_args], ["m"],
        help="verify the four metric axioms")
    add("taxonomy", cmd_taxonomy, [metric_args], ["m", "k"],
        help="metric taxonomy flags and witnesses")
    add("robust", cmd_robust, [rule_args, metric_args], ["m", "k"],
        help="exact robustness verdict for rule vs metric")
    add("counterexample", cmd_counterexample, [rule_args], ["m", "k"],
        help="adversarial metric+model for a rule")

    p = add("hierarchy", cmd_hierarchy, [], ["m", "k"], help="verdict matrix over rules x metrics")
    p.add_argument("--rules", required=True, help="comma-separated rule kinds")
    p.add_argument("--metrics", required=True, help="comma-separated metric kinds")

    p = add("sample", cmd_sample, [model_args], help="sample a profile from a noise model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("converge", cmd_converge, [rule_args, model_args],
            help="recovery-rate curve over a vote-count grid")
    p.add_argument("--n-grid", default="10,30,100,300,1000")
    p.add_argument("--approx", action="store_true", help="decimal rates instead of p/q")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)

    p = add("mle-check", cmd_mle_check, [], ["m", "k"],
            help="distance-minimizers vs score-winners agreement")
    p.add_argument("--p", required=True)
    p.add_argument("--profiles", type=int, required=True)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--seed", type=int, required=True)

    return parser


_EXIT_CODES = [
    ((ProfileParseError, InvalidRuleError, PreconditionError, SizeMismatchError,
      DomainMismatchError, InvalidCommitteeSizeError), EXIT_PARSE),
    ((CapExceededError,), EXIT_CAPS),
    ((MetricAxiomError,), EXIT_BAD_METRIC),
    ((NoCounterexampleError,), EXIT_NO_WITNESS),
    ((InvalidNoiseParamError, NotMonotonicError, NotNormalizedError), EXIT_BAD_MODEL),
]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runner = Runner(args)
    try:
        if getattr(args, "seed", 0) < 0:  # sample, converge, mle-check
            raise ProfileParseError(f"--seed must be a non-negative integer, got {args.seed}")
        args.func(args, runner)
    except AbccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                return code
        return 1
    if runner.outputs:  # a command that wrote result files appends their manifest record
        runner.finish_manifest()
    return 0


if __name__ == "__main__":
    sys.exit(main())
