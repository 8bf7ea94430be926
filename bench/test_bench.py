"""Tests of the benchmark itself: input generators, independent checkers,
span arithmetic, the comparison rule and BENCHMARK.json.

    python -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Generators.

def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    def make(seed):
        rng = np.random.default_rng(seed)
        return (
            gen.dump_json(gen.random_table_metric(4, rng, "t")),
            gen.dump_json(gen.level_model(6, 2, rng)[0]),
            gen.profile_text(8, gen.uniform_masks(8, 50, rng, distinct=True)),
            gen.profile_text(8, gen.concentrated_masks(8, 500, 20, rng)),
        )

    assert make(5) == make(5)
    assert all(a != b for a, b in zip(make(5), make(6)))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_inputs_are_byte_identical_for_a_seed(tmp_path, name):
    def build(seed, sub):
        (tmp_path / sub).mkdir()
        wl = workloads.WORKLOADS[name](seed, tmp_path / sub)
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}
        return [c.argv for c in wl.commands], files, json.dumps(wl.inputs, sort_keys=True)

    argv_a, files_a, inputs_a = build(3, "a")
    argv_b, files_b, inputs_b = build(3, "b")
    assert files_a == files_b and inputs_a == inputs_b
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert [[x.replace(a, b) for x in args] for args in argv_a] == argv_b
    assert "--threads" not in {x for a in argv_a for x in a}


def test_random_table_entries_are_eighths_between_one_and_two():
    doc = gen.random_table_metric(4, np.random.default_rng(0), "t")
    values = {Fraction(e["d"]) for e in doc["entries"]}
    assert len(doc["entries"]) == comb(16, 2)
    assert values <= {1 + Fraction(i, 8) for i in range(9)}


def test_level_probabilities_are_exact_and_strictly_decreasing():
    probs = gen.set_difference_level_probs(7, np.random.default_rng(1))
    assert sum(p * comb(7, t) for t, p in enumerate(probs)) == 1
    assert all(a > b > 0 for a, b in zip(probs, probs[1:]))


def test_concentrated_profile_has_few_distinct_votes():
    masks = gen.concentrated_masks(12, 5000, 40, np.random.default_rng(2))
    assert len(set(masks)) <= 40


# ---------------------------------------------------------------------------
# Independent scorers used by the winners checks, against abcc itself.

@pytest.mark.parametrize("rule", ["av", "cc", "pav"])
def test_exact_winners_match_abcc(rule):
    sys.path.insert(0, str(ROOT / "src"))
    from abcc.core import parse_profile
    from abcc.rules import make_rule, profile_score, winners

    rng = np.random.default_rng(4)
    for _ in range(5):
        masks = gen.uniform_masks(6, int(rng.integers(1, 30)), rng)
        universe, profile = parse_profile(gen.profile_text(6, masks))
        abcc_rule = make_rule(rule, 6, 3)
        expected = [list(c.labels(universe)) for c in winners(abcc_rule, profile)]
        assert workloads.exact_winners(rule, 6, 3, masks) == expected
        committee = winners(abcc_rule, profile)[0]
        assert workloads.exact_score(rule, 6, list(committee.labels(universe)), masks) == (
            profile_score(abcc_rule, committee, profile).total
        )


def test_level_sample_check_flags_a_wrong_distribution():
    m, k, n = 6, 2, 4000
    probs = gen.set_difference_level_probs(m, np.random.default_rng(0))
    check = workloads.check_level_sample(m, k, n, probs)
    uniform = gen.uniform_masks(m, n, np.random.default_rng(1))
    text = gen.profile_text(m, uniform).encode()
    problems, _ = check(workloads.Result(0, "", {"sample_n4000_seed1.txt": text}))
    assert problems


# ---------------------------------------------------------------------------
# Span arithmetic.

def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert spans.covered([(1, 3), (2, 5)], 2.5, 4) == 1.5
    assert spans.covered([], 0, 1) == 0


def test_self_time_subtracts_children_once():
    tree = [
        (0, 0.0, 10.0, -1, True),  # root
        (1, 1.0, 4.0, 0, True),  # child
        (2, 2.0, 3.0, 1, True),  # grandchild
        (1, 5.0, 6.0, 0, False),  # second child, raised
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]


def test_command_profile_adds_up_to_wall_time():
    doc = {
        "names": ["oracle.robustness_verdict", "metrics.level_structure"],
        "spans": [(0, 0.5, 3.0, -1, True), (1, 1.0, 1.5, 0, True), (1, 3.5, 3.75, -1, False)],
        "counts": {"oracle.pairs": 12},
    }
    prof = spans.command_profile(doc, wall_s=4.0)
    assert prof["spans"]["oracle.robustness_verdict"] == {"self_s": 2.0, "calls": 1, "errors": 0}
    assert prof["spans"]["metrics.level_structure"] == {"self_s": 0.75, "calls": 2, "errors": 1}
    assert prof["residual_s"] == pytest.approx(1.25)
    layer = spans.layer_metrics(spans.merge([prof, prof]), ("oracle.robustness_verdict",), ("metrics", "oracle"))
    assert layer["oracle.robustness_verdict.self_s"] == 4.0
    assert layer["oracle.robustness_verdict.self_share"] == 0.5
    assert layer["metrics.errors"] == 2 and layer["oracle.errors"] == 0
    assert layer["oracle.pairs"] == 24
    assert layer["metrics.level_cache_hit_ratio"] == 0.0


def test_command_profile_rejects_spans_longer_than_the_command():
    doc = {"names": ["core.parse_profile"], "spans": [(0, 0.0, 2.0, -1, True)], "counts": {}}
    with pytest.raises(ValueError):
        spans.command_profile(doc, wall_s=1.0)


def test_shim_traces_a_real_command(tmp_path):
    spans_file = tmp_path / "spans.json"
    argv = [sys.executable, str(HERE / "shim.py"), str(spans_file), "--",
            "robust", "--rule", "av", "--metric", "jaccard", "--m", "4", "--k", "2",
            "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, env=run.child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"status": "robust"}
    prof = spans.command_profile(json.loads(spans_file.read_text()), wall_s=100.0)
    assert prof["counts"]["oracle.pairs"] == 6 * 5
    assert prof["counts"]["oracle.vote_evals"] == 30 * 16
    assert prof["spans"]["metrics.level_structure"]["calls"] >= 6
    assert prof["spans"]["cli.write_json"]["calls"] == 1
    assert prof["counts"]["cli.result_bytes"] > 0


# ---------------------------------------------------------------------------
# Launching children.

def test_scaled_uses_the_probes_around_each_child():
    ref = run.PROBE_REFERENCE_S
    assert run.scaled([1.0, 2.0], [ref, ref, 2 * ref]) == pytest.approx([1.0, 2.0 * 2 / 3])


def test_launcher_reports_each_childs_own_peak_rss(tmp_path):
    with run.Launcher(time.perf_counter() + 60) as launcher:
        assert launcher.probe() > 0
        big, _ = launcher.spawn([sys.executable, "-c", "b = b'x' * (64 << 20)"], tmp_path, "big")
        small, out = launcher.spawn([sys.executable, "-c", "print(1)"], tmp_path, "small")
    assert big["rc"] == 0 and big["rss_kib"] > 64 * 1024
    assert small["rc"] == 0 and out == "1\n" and small["rss_kib"] < 30 * 1024
    assert launcher.proc.returncode == 0


def test_launcher_kills_a_child_past_the_deadline(tmp_path):
    with run.Launcher(time.perf_counter() + 0.5) as launcher:
        child, _ = launcher.spawn([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, "slow")
    assert child["rc"] == -9 and child["wall_s"] < 10


# ---------------------------------------------------------------------------
# The comparison rule.

def test_judge_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_spread():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2]
    change = [p - 1 for p in parent]
    assert compare.judge(parent, change, "lower", 0.1)["verdict"] == "gain"
    change[0] = parent[0] + 1  # 9 of 10 wins still counts
    assert compare.judge(parent, change, "lower", 0.1)["verdict"] == "gain"
    change[1] = parent[1]  # a tie counts for neither side: 8 of 10
    assert compare.judge(parent, change, "lower", 0.1)["verdict"] != "gain"


def test_judge_regression_same_and_unresolved():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    assert compare.judge(parent, [p * 1.2 for p in parent], "lower", 0.1)["verdict"] == "regression"
    assert compare.judge(parent, [p * 1.01 for p in parent], "lower", 0.1)["verdict"] == "same"
    noisy = [8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 10.0, 9.5, 10.5, 12.5]
    assert compare.judge(noisy, [v * 1.05 for v in noisy], "lower", 0.1)["verdict"] == "unresolved"
    assert compare.judge(parent, [p * 0.8 for p in parent], "higher", 0.1)["verdict"] == "regression"


def test_hash_diff_names_changed_commands():
    a = {"commands": [{"id": "x", "sha256": {"f": "1"}}, {"id": "y", "sha256": {"g": "2"}}]}
    b = {"commands": [{"id": "x", "sha256": {"f": "1"}}, {"id": "y", "sha256": {"g": "3"}}]}
    assert compare.hash_diff(a, b) == ["y"]


# ---------------------------------------------------------------------------
# BENCHMARK.json.

def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
