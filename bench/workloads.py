"""The four benchmark workloads: fixed abcc command lists, their seeded
inputs, and the checks that decide whether each command's output is right.

Each workload stresses different layers (see bench/README.md for the
layer-to-metric mapping). A command's check returns the problems it found
and a canonical "answer" (verdict status, flags, winner sets, rates, ...).
Answers of commands whose inputs do not depend on the workload seed are
compared with bench/pins.json at every seed; the rest only at the default
seed. Level-model sampling streams are never pinned: their sampled level
frequencies are checked against the exact level probabilities instead.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, lcm, sqrt
from pathlib import Path
from typing import Callable

import numpy as np

import gen

DEFAULT_SEED = 0
STATUSES = {"robust", "not_robust", "degenerate_not_robust"}
PINS = Path(__file__).with_name("pins.json")


@dataclass
class Result:
    """What one finished command left behind."""

    rc: int
    stdout: str
    files: dict[str, bytes]  # result files, manifest.jsonl excluded


@dataclass
class Command:
    id: str
    argv: list[str]
    check: Callable[[Result], tuple[list[str], object]]
    seeded: bool = False  # answer depends on the workload seed
    pinned: bool = True  # False for answers that follow a level-model sampling stream
    pairs: int = 0  # ordered (ground, rival) committee pairs decided
    votes: int = 0  # votes sampled or parsed, and then scored


@dataclass
class Workload:
    name: str
    commands: list[Command]
    inputs: dict = field(default_factory=dict)  # input properties, for the report


def _one_json(files: dict[str, bytes], prefix: str) -> tuple[str, dict]:
    names = [n for n in files if n.startswith(prefix) and n.endswith(".json")]
    if len(names) != 1:
        raise ValueError(f"expected one {prefix}*.json result file, found {sorted(files)}")
    return names[0], json.loads(files[names[0]])


def _guard(check):
    """Turn any exception inside a check into a reported problem."""

    def run(res: Result):
        if res.rc != 0:
            return [f"exit code {res.rc}, expected 0"], None
        try:
            return check(res)
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
            return [f"unparseable output: {type(exc).__name__}: {exc}"], None

    return run


# ---------------------------------------------------------------------------
# Checks for the exact commands.

def check_robust(pairs: int):
    @_guard
    def check(res):
        problems = []
        status = json.loads(res.stdout)["status"]
        model_files = [n for n in res.files if n.endswith("_witness_model.json")]
        verdict_files = {n: b for n, b in res.files.items() if n not in model_files}
        _, doc = _one_json(verdict_files, "robust_")
        if status not in STATUSES or doc["status"] != status:
            problems.append(f"status {status!r} vs file {doc['status']!r}")
        if len(doc["per_pair_summary"]) != pairs:
            problems.append(f"{len(doc['per_pair_summary'])} pair summaries, expected {pairs}")
        witness = doc["witness"]
        if status == "robust" and witness is not None:
            problems.append("robust verdict carries a witness")
        if status == "not_robust" and not Fraction(witness["gap"]) < 0:
            problems.append(f"not_robust witness gap {witness['gap']} is not negative")
        if status == "degenerate_not_robust" and witness["gap"] != "0":
            problems.append(f"degenerate witness gap {witness['gap']} is not 0")
        if (status == "robust") == bool(model_files):
            problems.append(f"witness model files {model_files} do not match status {status}")
        for n in model_files:
            model = json.loads(res.files[n])
            if model["type"] != "level" or not model["probs"]:
                problems.append(f"{n} is not a level model")
        return problems, status

    return check


@_guard
def check_hierarchy(res):
    rows = list(csv.reader(io.StringIO(res.stdout)))
    problems = []
    for row in rows[1:]:
        bad = [s for s in row[1:] if s not in STATUSES]
        if bad:
            problems.append(f"row {row[0]} has unknown statuses {bad}")
    csv_names = [n for n in res.files if n.endswith(".csv")]
    if len(csv_names) != 1 or res.files[csv_names[0]].decode() != res.stdout:
        problems.append("hierarchy CSV file differs from the printed matrix")
    _one_json(res.files, "hierarchy_")
    return problems, rows


@_guard
def check_counterexample(res):
    gap = json.loads(res.stdout)["expected_gap"]
    _, doc = _one_json(res.files, "counterexample_")
    problems = []
    if not Fraction(gap) < 0 or doc["expected_gap"] != gap:
        problems.append(f"expected gap {gap} (file {doc['expected_gap']}) is not negative")
    return problems, gap


FLAGS = (
    "is_metric",
    "is_majority_concentric",
    "is_natural",
    "is_similarity",
    "is_alternative_independent",
)


@_guard
def check_taxonomy(res):
    printed = json.loads(res.stdout)
    _, doc = _one_json(res.files, "taxonomy_")
    flags = {f: doc[f] for f in FLAGS}
    problems = []
    if {f: printed[f] for f in FLAGS} != flags:
        problems.append("printed flags differ from the result file")
    if not flags["is_metric"]:
        problems.append("a valid metric was classified as not a metric")
    missing = [f for f, ok in flags.items() if not ok and f not in doc["witnesses"]]
    if missing:
        problems.append(f"failed flags without a witness: {missing}")
    return problems, flags


@_guard
def check_check_metric(res):
    doc = json.loads(res.stdout)
    return ([] if doc["is_metric"] is True else ["valid metric rejected"]), doc["is_metric"]


# ---------------------------------------------------------------------------
# Checks for the Monte Carlo commands.

def _rate_rows(text: str, grid: list[int], trials: int) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    problems = []
    if rows[0] != ["n", "recovery_rate", "tie_rate", "wrong_rate"]:
        problems.append(f"unexpected header {rows[0]}")
    if [int(r[0]) for r in rows[1:]] != grid:
        problems.append(f"grid {[r[0] for r in rows[1:]]} != {grid}")
    for row in rows[1:]:
        rates = [Fraction(x) for x in row[1:]]
        if sum(rates) != 1 or any(r < 0 or (r * trials).denominator != 1 for r in rates):
            problems.append(f"rates {row[1:]} do not split {trials} trials")
    return problems, rows[1:]


def check_converge(grid: list[int], trials: int):
    @_guard
    def check(res):
        problems, rows = _rate_rows(res.stdout, grid, trials)
        csv_names = [n for n in res.files if n.endswith(".csv")]
        if len(csv_names) != 1 or res.files[csv_names[0]].decode() != res.stdout:
            problems.append("converge CSV file differs from the printed curve")
        _one_json(res.files, "converge_")
        return problems, rows

    return check


def _sampled_masks(res: Result, m: int, n: int) -> tuple[list[str], np.ndarray]:
    names = [f for f in res.files if f.startswith("sample_")]
    if len(names) != 1:
        raise ValueError(f"expected one sample file, found {sorted(res.files)}")
    lines = res.files[names[0]].decode().split("\n")
    problems = []
    if lines[0] != "alternatives: " + ",".join(gen.labels(m)):
        problems.append(f"unexpected profile header {lines[0]!r}")
    votes = lines[1:-1]
    if len(votes) != n or lines[-1] != "":
        problems.append(f"{len(votes)} votes, expected {n}")
    index = {name: i for i, name in enumerate(gen.labels(m))}
    masks = np.array(
        [sum(1 << index[t] for t in v.split(",")) if v else 0 for v in votes], dtype=np.int64
    )
    return problems, masks


def _within(observed: float, expected: float, n: int) -> bool:
    # six standard errors: a correct sampler fails this about once in 1e9
    return abs(observed - expected) <= 6 * sqrt(expected * (1 - expected) / n) + 1e-12


def check_level_sample(m: int, k: int, n: int, probs: list[Fraction]):
    """Sampled set-difference level frequencies against the exact level
    probabilities p_t * C(m, t)."""

    @_guard
    def check(res):
        problems, masks = _sampled_masks(res, m, n)
        ground = (1 << k) - 1
        levels = np.bitwise_count(masks ^ ground)
        freq = np.bincount(levels, minlength=m + 1) / len(masks)
        for t, p in enumerate(probs):
            exact = float(p * comb(m, t))
            if not _within(freq[t], exact, len(masks)):
                problems.append(f"level {t}: frequency {freq[t]:.5f}, exact {exact:.5f}")
        return problems, None

    return check


def check_mp_sample(m: int, k: int, n: int, p: Fraction):
    """Per-alternative approval frequencies against p (members) and 1-p."""

    @_guard
    def check(res):
        problems, masks = _sampled_masks(res, m, n)
        for i in range(m):
            exact = float(p if i < k else 1 - p)
            freq = float(((masks >> i) & 1).mean())
            if not _within(freq, exact, len(masks)):
                problems.append(f"alternative {i}: frequency {freq:.5f}, exact {exact:.5f}")
        return problems, None

    return check


def check_mle(profiles: int):
    @_guard
    def check(res):
        agree, total = (int(x) for x in res.stdout.split(":")[1].split("/"))
        _, doc = _one_json(res.files, "mle_check_")
        problems = []
        if (agree, total) != (profiles, profiles) or (doc["equivalent"], doc["profiles"]) != (agree, total):
            problems.append(f"equivalent {agree}/{total}, expected {profiles}/{profiles}")
        return problems, [agree, total]

    return check


# ---------------------------------------------------------------------------
# Independent exact scoring, to check winners and score at every seed.

def rule_weights(rule: str, k: int) -> tuple[list[int], int]:
    """Integer score by overlap x = |C ∩ S|, and the common scale, for the
    overlap-only rules the workloads use."""
    if rule == "av":
        return list(range(k + 1)), 1
    if rule == "cc":
        return [min(x, 1) for x in range(k + 1)], 1
    if rule == "pav":
        scale = lcm(*range(1, k + 1))
        return [sum(scale // i for i in range(1, x + 1)) for x in range(k + 1)], scale
    raise ValueError(f"no independent scorer for {rule!r}")


def exact_winners(rule: str, m: int, k: int, masks: list[int]) -> list[list[str]]:
    votes, counts = np.unique(np.array(masks, dtype=np.int64), return_counts=True)
    committees = np.array(
        [sum(1 << i for i in c) for c in combinations(range(m), k)], dtype=np.int64
    )
    committees.sort()
    weights, _ = rule_weights(rule, k)
    overlap = np.bitwise_count(committees[:, None] & votes[None, :])
    totals = np.array(weights, dtype=np.int64)[overlap] @ counts.astype(np.int64)
    names = gen.labels(m)
    best = committees[totals == totals.max()]
    return [[names[i] for i in range(m) if int(c) >> i & 1] for c in best]


def exact_score(rule: str, m: int, committee: list[str], masks: list[int]) -> Fraction:
    k = len(committee)
    cmask = sum(1 << gen.labels(m).index(a) for a in committee)
    weights, scale = rule_weights(rule, k)
    overlap = np.bitwise_count(np.array(masks, dtype=np.int64) & cmask)
    return Fraction(int(np.array(weights, dtype=np.int64)[overlap].sum()), scale)


def check_winners(expected: list[list[str]]):
    @_guard
    def check(res):
        got = json.loads(res.stdout)["winners"]
        problems = [] if got == expected else [f"winners {got}, independent argmax {expected}"]
        return problems, got

    return check


def check_score(expected: Fraction):
    @_guard
    def check(res):
        got = res.stdout.strip()
        problems = [] if Fraction(got) == expected else [f"score {got}, independent sum {expected}"]
        return problems, got

    return check


# ---------------------------------------------------------------------------
# The workloads. Sizes keep each command list near 4-7 s on a 2-vCPU machine
# at the seed commit, so a 28 s run repeats it three to five times. Each
# list has an odd number of commands, so that the median command time
# falls on one command rather than between two.

def _pairs(m: int, k: int) -> int:
    c = comb(m, k)
    return c * (c - 1)


def _entries(m: int) -> int:
    """Unordered pairs of distinct subsets: the entries of a metric table."""
    return (1 << m) * ((1 << m) - 1) // 2


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def verdict(seed: int, inputs: Path) -> Workload:
    """The robust paths: per-pair gap coefficient sweeps in the oracle."""
    pav_file, cc_file = (
        _write(inputs / f"{name}.json", gen.dump_json(gen.random_table_metric(6, _rng(seed, i), name)))
        for i, name in [(1, "random_table_m6"), (2, "random_table_m6b")]
    )
    cmds = []
    for rule, metric, m, k in [
        ("pav", "jaccard", 8, 3),
        ("cc", "trivial", 6, 3),
        ("av", "zelinka", 6, 3),
        ("sav", "set_difference", 6, 3),
        ("mc", "bunke_shearer", 6, 3),
    ]:
        cmds.append(Command(
            f"robust-{rule}-{metric}-m{m}k{k}",
            ["robust", "--rule", rule, "--metric", metric, "--m", str(m), "--k", str(k)],
            check_robust(_pairs(m, k)), pairs=_pairs(m, k),
        ))
    for rule, path, m, k in [("pav", pav_file, 6, 3), ("cc", cc_file, 6, 2)]:
        cmds.append(Command(
            f"robust-{rule}-table-m{m}k{k}",
            ["robust", "--rule", rule, "--metric-file", path, "--m", str(m), "--k", str(k)],
            check_robust(_pairs(m, k)), seeded=True, pairs=_pairs(m, k),
        ))
    rules, metrics = ["av", "cc", "pav", "sav", "mc"], ["set_difference", "jaccard", "trivial"]
    cmds.append(Command(
        "hierarchy-m5k2",
        ["hierarchy", "--rules", ",".join(rules), "--metrics", ",".join(metrics), "--m", "5", "--k", "2"],
        check_hierarchy, pairs=len(rules) * len(metrics) * _pairs(5, 2),
    ))
    cmds.append(Command(
        "counterexample-pav-m6k3",
        ["counterexample", "--rule", "pav", "--m", "6", "--k", "3"],
        check_counterexample,
    ))
    return Workload("verdict", cmds, {
        "grid": "(m, k) from (5, 2) to (8, 3)",
        "committees": {"m8k3": comb(8, 3), "m6k3": comb(6, 3), "m6k2": comb(6, 2), "m5k2": comb(5, 2)},
        "pairs": sum(c.pairs for c in cmds),
        "metric_file_entries": {"m6": _entries(6)},
    })


def taxonomy(seed: int, inputs: Path) -> Workload:
    """The metric classifiers; the oracle never runs here."""
    tax_file, check_file = (
        _write(inputs / f"{name}.json", gen.dump_json(gen.random_table_metric(m, _rng(seed, i), name)))
        for i, m, name in [(3, 6, "random_table_m6"), (4, 7, "random_table_m7")]
    )
    cmds = [
        Command(f"taxonomy-{metric}-m{m}k{k}",
                ["taxonomy", "--metric", metric, "--m", str(m), "--k", str(k)], check_taxonomy)
        for metric, m, k in [
            ("jaccard", 8, 3),
            ("set_difference", 8, 3),
            ("zelinka", 7, 3),
            ("bunke_shearer", 7, 3),
            ("trivial", 7, 2),
        ]
    ]
    cmds.append(Command("taxonomy-table-m6k2",
                        ["taxonomy", "--metric-file", tax_file, "--m", "6", "--k", "2"],
                        check_taxonomy, seeded=True))
    for metric, m in [("jaccard", 9), ("zelinka", 8)]:
        cmds.append(Command(f"check-metric-{metric}-m{m}",
                            ["check-metric", "--metric", metric, "--m", str(m)], check_check_metric))
    cmds.append(Command("check-metric-table-m7",
                        ["check-metric", "--metric-file", check_file, "--m", "7"],
                        check_check_metric, seeded=True))
    return Workload("taxonomy", cmds, {
        "m": [6, 7, 8, 9],
        "subsets_max": 1 << 9,
        "metric_file_entries": {"m6": _entries(6), "m7": _entries(7)},
    })


def montecarlo(seed: int, inputs: Path) -> Workload:
    """Many small exact argmaxes over sampled profiles, plus sampling."""
    seeds = [int(s) for s in _rng(seed, 5).integers(0, 2**31, size=7)]
    model_doc, probs = gen.level_model(10, 3, _rng(seed, 6))
    model_file = _write(inputs / "level_m10.json", gen.dump_json(model_doc))
    grid, small_grid = [10, 30, 100, 300, 1000], [10, 100, 1000]
    cmds = []
    for i, (rule, p, m, trials) in enumerate([("av", "3/4", 8, 12), ("pav", "3/5", 7, 10)]):
        cmds.append(Command(
            f"converge-{rule}-mp-m{m}k3",
            ["converge", "--rule", rule, "--model", "mp", "--p", p, "--m", str(m), "--k", "3",
             "--ground", "a,b,c", "--n-grid", ",".join(map(str, grid)), "--trials", str(trials),
             "--seed", str(seeds[i])],
            check_converge(grid, trials), seeded=True, votes=sum(grid) * trials,
        ))
    level_trials = 3
    cmds.append(Command(
        "converge-av-level-m10k3",
        ["converge", "--rule", "av", "--model-file", model_file,
         "--n-grid", ",".join(map(str, small_grid)), "--trials", str(level_trials), "--seed", str(seeds[2])],
        check_converge(small_grid, level_trials), seeded=True, pinned=False,
        votes=sum(small_grid) * level_trials,
    ))
    cmds.append(Command(
        "sample-level-m10-n20000",
        ["sample", "--model-file", model_file, "--n", "20000", "--seed", str(seeds[3])],
        check_level_sample(10, 3, 20000, probs), seeded=True,
    ))
    for i, (p, m, k, n) in enumerate([("3/4", 16, 3, 50000), ("3/5", 12, 4, 20000)]):
        cmds.append(Command(
            f"sample-mp-m{m}-n{n}",
            ["sample", "--model", "mp", "--p", p, "--m", str(m), "--k", str(k),
             "--ground", ",".join(gen.labels(k)), "--n", str(n), "--seed", str(seeds[4 + i])],
            check_mp_sample(m, k, n, Fraction(p)), seeded=True,
        ))
    cmds.append(Command(
        "mle-check-m8k3",
        ["mle-check", "--p", "3/4", "--m", "8", "--k", "3", "--profiles", "200", "--seed", str(seeds[6])],
        check_mle(200), seeded=True,
    ))
    return Workload("montecarlo", cmds, {
        "m": [7, 8, 10, 16],
        "k": 3,
        "committees": {"m7": comb(7, 3), "m8": comb(8, 3), "m10": comb(10, 3)},
        "votes_scored": sum(c.votes for c in cmds),
        "sample_sizes": [20000, 50000, 20000],
        "level_probs": [gen.frac_text(p) for p in probs],
    })


def winners(seed: int, inputs: Path) -> Workload:
    """A few large exact argmaxes over parsed profile files."""
    profiles = {
        "uniform_m16": (16, gen.uniform_masks(16, 1000, _rng(seed, 7), distinct=True)),
        "uniform_m14": (14, gen.uniform_masks(14, 1000, _rng(seed, 8))),
        "concentrated_m12": (12, gen.concentrated_masks(12, 50000, 800, _rng(seed, 9))),
    }
    paths = {
        name: _write(inputs / f"{name}.txt", gen.profile_text(m, masks))
        for name, (m, masks) in profiles.items()
    }
    cmds = []
    for rule, k, name in [("av", 3, "uniform_m16"), ("cc", 3, "uniform_m14"), ("pav", 3, "concentrated_m12")]:
        m, masks = profiles[name]
        cmds.append(Command(
            f"winners-{rule}-k{k}-{name}",
            ["winners", "--rule", rule, "--k", str(k), "--profile", paths[name]],
            check_winners(exact_winners(rule, m, k, masks)), seeded=True, votes=len(masks),
        ))
    for rule, name in [("pav", "concentrated_m12"), ("av", "uniform_m16")]:
        m, masks = profiles[name]
        cmds.append(Command(
            f"score-{rule}-{name}",
            ["score", "--rule", rule, "--committee", "a,b,c", "--profile", paths[name]],
            check_score(exact_score(rule, m, ["a", "b", "c"], masks)), seeded=True, votes=len(masks),
        ))
    return Workload("winners", cmds, {
        name: {
            "m": m,
            "k": 3,
            "committees": comb(m, 3),
            "votes": len(masks),
            "distinct_vote_share": len(set(masks)) / len(masks),
        }
        for name, (m, masks) in profiles.items()
    })


WORKLOADS = {"verdict": verdict, "taxonomy": taxonomy, "montecarlo": montecarlo, "winners": winners}


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def pin_problems(workload: str, cmd: Command, seed: int, answer, pins: dict) -> list[str]:
    """Compare an exact answer with its pinned value, where one applies."""
    if not cmd.pinned or (cmd.seeded and seed != DEFAULT_SEED):
        return []
    pinned = pins.get(workload, {}).get(cmd.id)
    if pinned is None:
        return []
    if json.loads(json.dumps(answer)) != pinned:
        return [f"answer {answer!r} differs from the pinned {pinned!r}"]
    return []
