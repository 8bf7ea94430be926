import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from abcc.cli import main
from abcc.core import frac_str, parse_profile
from abcc.metrics import DistanceMetric, metric_from_json, metric_to_json, random_metric
from abcc.noise import jump_counterexample, model_from_json
from abcc.oracle import expected_gap
from abcc.rules import make_rule, rule_to_json
from conftest import committee_of

PROFILE_AB = "alternatives: a,b,c\na\na,b\n"


def write_profile(tmp_path, text=PROFILE_AB, name="votes.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScoreAndWinners:
    def test_pav_score_golden(self, tmp_path, capsys):
        # votes {a} and {a,b} for committee {a,b}: 1 + (1 + 1/2) = 5/2
        profile = write_profile(tmp_path)
        code, out, _ = run(
            capsys, "score", "--rule", "pav", "--committee", "a,b", "--profile", profile
        )
        assert code == 0
        assert out.strip() == "5/2"

    def test_score_approx(self, tmp_path, capsys):
        profile = write_profile(tmp_path)
        code, out, _ = run(
            capsys,
            "score", "--rule", "pav", "--committee", "a,b", "--profile", profile,
            "--approx",
        )
        assert code == 0
        assert out.strip() == "2.5"

    def test_winners_golden(self, tmp_path, capsys):
        profile = write_profile(tmp_path, "alternatives: a,b,c\n" + "a,b\n" * 5)
        code, out, _ = run(
            capsys, "winners", "--rule", "av", "--k", "2", "--profile", profile
        )
        assert code == 0
        assert json.loads(out) == {"winners": [["a", "b"]]}

    def test_malformed_vote_line_exits_2(self, tmp_path, capsys):
        profile = write_profile(tmp_path, "alternatives: a,b\na\nq\n")
        code, _, err = run(
            capsys, "winners", "--rule", "av", "--k", "1", "--profile", profile
        )
        assert code == 2
        assert "line 3" in err

    def test_custom_rule_file(self, tmp_path, capsys):
        from abcc.rules import make_rule, rule_to_json

        rule_path = tmp_path / "rule.json"
        rule_path.write_text(json.dumps(rule_to_json(make_rule("av", 3, 2))))
        profile = write_profile(tmp_path, "alternatives: a,b,c\na,b\n")
        code, out, _ = run(
            capsys,
            "score", "--rule-file", str(rule_path), "--committee", "a,b",
            "--profile", profile,
        )
        assert code == 0 and out.strip() == "2"


class TestMetricCommands:
    def test_check_builtin(self, capsys):
        code, out, _ = run(capsys, "check-metric", "--metric", "jaccard", "--m", "4")
        assert code == 0
        assert json.loads(out)["is_metric"] is True

    def test_non_metric_file_exits_4_with_witness(self, tmp_path, capsys):
        doc = metric_to_json(random_metric(2, seed=3))
        doc["entries"][0]["d"] = "99"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "check-metric", "--metric-file", str(path), "--m", "2"
        )
        assert code == 4
        report = json.loads(out)
        assert report["is_metric"] is False and "witness" in report

    @pytest.mark.parametrize("argv", [
        ["check-metric", "--m", "4"],
        ["taxonomy", "--m", "4", "--k", "2"],
    ])
    def test_metric_file_is_axiom_checked_once(self, argv, tmp_path, capsys, monkeypatch):
        # loading the table checks its axioms; the command used to scan the
        # full matrix for them a second time
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(metric_to_json(random_metric(4, seed=5))))
        scans = []
        rows = DistanceMetric.rows

        def spy(self, masks, terms=1):
            scans.append(terms)
            return rows(self, masks, terms)

        monkeypatch.setattr(DistanceMetric, "rows", spy)
        code, _, _ = run(capsys, *argv, "--metric-file", str(path), "--out", str(tmp_path))
        assert code == 0
        assert scans.count(2) == 1

    def test_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "check-metric", "--metric", "trivial", "--m", "17")
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["check-metric", "--metric", "jaccard"],
        ["taxonomy", "--metric", "jaccard", "--k", "3"],
        # a builtin metric is decided on the overlap classes, a metric file
        # (never read here) may hold a table over all 2^m sets
        ["robust", "--rule", "pav", "--metric-file", "unread.json", "--k", "3"],
        ["counterexample", "--rule", "pav", "--k", "3"],
        ["hierarchy", "--rules", "av,pav", "--metrics", "jaccard", "--k", "3"],
    ])
    def test_set_cap_before_labels_and_rules(self, argv, tmp_path, capsys):
        # the 2M labels, or a rule table over 2M alternatives, used to be
        # built before any cap was checked
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv, "--m", "2000000", "--out", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "2^m sets" in err
        assert peak < 4 << 20

    def test_class_cap_before_labels_and_rules(self, tmp_path, capsys):
        # the overlap classes of a builtin at m = 2M weigh about 3e12 cell words
        argv = ["robust", "--rule", "pav", "--metric", "jaccard", "--k", "3", "--m", "2000000"]
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv, "--out", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "overlap classes" in err
        assert peak < 4 << 20

    @pytest.mark.parametrize("argv", [
        ["check-metric", "--metric", "jaccard", "--m", "13"],
        ["taxonomy", "--metric", "jaccard", "--m", "13", "--k", "2"],
        # the digits of its pair count used to end in a traceback, after 2M labels
        ["check-metric", "--metric-file", "{huge_table}", "--m", "3"],
        ["counterexample", "--rule", "cc", "--m", "13", "--k", "2"],
    ])
    def test_full_matrix_over_budget_exits_3_at_once(self, argv, tmp_path, capsys, monkeypatch):
        # 4^13 cells are over the budget: refused before any distance row exists
        def no_rows(self, masks, terms=1):
            raise AssertionError("a distance row was built")

        huge_table = tmp_path / "huge_table.json"
        huge_table.write_text(json.dumps({"m": 2000000, "entries": []}))
        argv = [arg.format(huge_table=huge_table) for arg in argv]

        monkeypatch.setattr(DistanceMetric, "rows", no_rows)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv, "--out", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "cells" in err
        assert peak < 4 << 20

    def test_taxonomy_jaccard(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "taxonomy", "--metric", "jaccard", "--m", "5", "--k", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["is_similarity"] and doc["is_natural"] and doc["is_majority_concentric"]
        assert (tmp_path / "taxonomy_jaccard_m5k2.json").exists()

    def test_taxonomy_example2(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "taxonomy", "--metric", "example2", "--m", "3", "--k", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["is_majority_concentric"] is True
        assert doc["is_natural"] is False


class TestOracleCommands:
    def test_robust_mc_trivial(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "robust", "--rule", "mc", "--metric", "trivial", "--m", "4", "--k", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert json.loads(out)["status"] == "robust"
        files = list(tmp_path.glob("robust_*.json"))
        assert len(files) == 1

    def test_robust_writes_witness_model_file(self, tmp_path, capsys):
        metric_path = tmp_path / "metric.json"
        metric_path.write_text(json.dumps(metric_to_json(random_metric(4, seed=[12, 1]))))
        code, out, _ = run(
            capsys,
            "robust", "--rule", "av", "--metric-file", str(metric_path),
            "--m", "4", "--k", "2", "--out", str(tmp_path),
        )
        assert code == 0
        status = json.loads(out)["status"]
        if status == "not_robust":
            assert list(tmp_path.glob("*witness_model.json"))

    def test_witness_model_of_table_named_like_a_builtin_reloads(self, tmp_path, capsys):
        doc = metric_to_json(random_metric(4, seed=0))
        doc["name"] = "jaccard"
        metric_path = tmp_path / "metric.json"
        metric_path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys,
            "robust", "--rule", "av", "--metric-file", str(metric_path),
            "--m", "4", "--k", "2", "--out", str(tmp_path),
        )
        assert code == 0 and json.loads(out)["status"] == "not_robust"
        (model_path,) = tmp_path.glob("*witness_model.json")
        code, _, err = run(
            capsys, "sample", "--model-file", str(model_path), "--n", "3", "--seed", "1",
            "--out", str(tmp_path),
        )
        assert code == 0, err

    def test_hierarchy_over_matrix_budget_exits_3_before_any_verdict(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_verdict(rule, metric):
            raise AssertionError("a robustness verdict ran")

        monkeypatch.setattr("abcc.experiments.robustness_verdict", no_verdict)
        code, out, err = run(
            capsys,
            "hierarchy", "--rules", "av,cc,pav", "--metrics", "jaccard,zelinka",
            "--m", "13", "--k", "3", "--out", str(tmp_path),
        )
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "cells" in err

    def test_counterexample_cc(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "counterexample", "--rule", "cc", "--m", "4", "--k", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        from abcc.core import parse_frac

        assert parse_frac(json.loads(out)["expected_gap"]) < 0
        doc = json.loads((tmp_path / "counterexample_cc_m4k2.json").read_text())
        assert doc["jump"] == [1, 1]

    @pytest.mark.parametrize("kind", [
        "av", "cc", "pav", "sav", "sainte_lague", "p_geometric", "thiele", "special6_f",
        "special6_fprime",
    ])
    def test_counterexample_file_reloads(self, kind, tmp_path, capsys):
        # every catalog rule with a jump (all but mc), at 3 <= m <= 6 and each k < m
        cases = [(4, 2)] if kind.startswith("special6") else [
            (m, k) for m in range(3, 7) for k in range(1, m)
        ]
        for m, k in cases:
            weights = list(range(1, k + 1))
            rule = make_rule(kind, m, k, weights=weights, p=Fraction(1, 2))
            spec = {
                "thiele": "thiele:" + ";".join(map(str, weights)),
                "p_geometric": "p_geometric:1/2",
            }
            code, _, err = run(
                capsys, "counterexample", "--rule", spec.get(kind, kind),
                "--m", str(m), "--k", str(k), "--out", str(tmp_path),
            )
            assert code == 0, err
            (path,) = tmp_path.glob(f"counterexample_*_m{m}k{k}.json")
            doc = json.loads(path.read_text())
            assert doc["metric"]["default"] == "2" and len(doc["metric"]["entries"]) <= 2
            want = jump_counterexample(rule).metric.rows(range(1 << m))
            metric = metric_from_json(doc["metric"])
            model = model_from_json(doc["model"])
            for reloaded in (metric, model.metric):
                rows, scale = reloaded.rows(range(1 << m))
                assert scale == want[1] and np.array_equal(rows, want[0])
            ground, rival = (committee_of(model.universe, doc[key]) for key in ("ground", "rival"))
            assert frac_str(expected_gap(rule, model, ground, rival)) == doc["expected_gap"]

    def test_counterexample_at_m10_is_small(self, tmp_path, capsys):
        # the metric was written as its full pair table: 263 MB here
        code, _, err = run(
            capsys, "counterexample", "--rule", "cc", "--m", "10", "--k", "2",
            "--out", str(tmp_path),
        )
        assert code == 0, err
        assert (tmp_path / "counterexample_cc_m10k2.json").stat().st_size < 10_000

    def test_counterexample_mc_exits_5(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "counterexample", "--rule", "mc", "--m", "4", "--k", "2",
            "--out", str(tmp_path),
        )
        assert code == 5

    def test_hierarchy(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "hierarchy", "--rules", "av,cc,mc", "--metrics", "set_difference,trivial",
            "--m", "4", "--k", "2", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "hierarchy_m4k2.csv").exists()
        doc = json.loads((tmp_path / "hierarchy_m4k2.json").read_text())
        assert doc["matrix"]["cc"]["trivial"] == "degenerate_not_robust"
        assert doc["matrix"]["mc"]["set_difference"] == "robust"

    def test_taxonomy_bad_custom_metric_exits_4(self, tmp_path, capsys):
        doc = metric_to_json(random_metric(2, seed=3))
        doc["entries"][0]["d"] = "99"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys,
            "taxonomy", "--metric-file", str(path), "--m", "2", "--k", "1",
            "--out", str(tmp_path),
        )
        assert code == 4
        assert "witness" in json.loads(out)


class TestSamplingCommands:
    def test_sample_round_trip(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "sample", "--model", "mp", "--p", "4/5", "--m", "8", "--k", "3",
            "--ground", "a,b,c", "--n", "100", "--seed", "7", "--out", str(tmp_path),
        )
        assert code == 0
        path = Path(out.strip())
        universe, profile = parse_profile(path.read_text())
        assert profile.n == 100
        assert universe.m == 8

    def test_sample_deterministic_bytes(self, tmp_path, capsys):
        args = [
            "sample", "--model", "mp", "--p", "3/4", "--m", "5", "--k", "2",
            "--ground", "a,b", "--n", "40", "--seed", "11",
        ]
        code1, out1, _ = run(capsys, *args, "--out", str(tmp_path / "one"))
        code2, out2, _ = run(capsys, *args, "--out", str(tmp_path / "two"))
        assert code1 == code2 == 0
        bytes1 = Path(out1.strip()).read_bytes()
        bytes2 = Path(out2.strip()).read_bytes()
        assert bytes1 == bytes2

    def test_bad_p_exits_6(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "sample", "--model", "mp", "--p", "1/2", "--m", "4", "--k", "2",
            "--ground", "a,b", "--n", "5", "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 6

    def test_level_model_sampling(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "sample", "--model", "level", "--metric", "trivial", "--m", "3", "--k", "2",
            "--ground", "a,b", "--probs", "2/9,1/9", "--n", "10", "--seed", "2",
            "--out", str(tmp_path),
        )
        assert code == 0

    def test_converge_csv(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "converge", "--rule", "av", "--model", "mp", "--p", "3/4", "--m", "4",
            "--k", "2", "--ground", "a,b", "--n-grid", "5,20", "--trials", "10",
            "--seed", "3", "--out", str(tmp_path),
        )
        assert code == 0
        assert out.splitlines()[0] == "n,recovery_rate,tie_rate,wrong_rate"
        assert (tmp_path / "converge_av_seed3.csv").exists()

    def test_converge_from_model_file_infers_m(self, tmp_path, capsys):
        from fractions import Fraction

        from abcc.core import Committee, default_universe
        from abcc.noise import make_mp, model_to_json

        u = default_universe(4)
        model = make_mp(Fraction(3, 4), u, Committee(u.set_of(["a", "b"]), 2))
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_to_json(model)))
        code, out, _ = run(
            capsys,
            "converge", "--rule", "av", "--model-file", str(model_path),
            "--n-grid", "5", "--trials", "5", "--seed", "8", "--out", str(tmp_path),
        )
        assert code == 0

    def test_mle_check_output(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "mle-check", "--p", "3/4", "--m", "5", "--k", "2", "--profiles", "100",
            "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 0
        assert out.strip() == "equivalent: 100/100"

    def test_mle_check_negative_m_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "mle-check", "--p", "3/4", "--m", "-1", "--k", "1", "--profiles", "2",
            "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 2 and err.startswith("error: ")


class TestInputErrors:
    """Malformed names and files end with exit 2 and one error line."""

    def assert_exit_2(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_unknown_metric_name(self, tmp_path, capsys):
        err = self.assert_exit_2(
            capsys,
            "robust", "--rule", "av", "--metric", "nosuch", "--m", "4", "--k", "2",
            "--out", str(tmp_path),
        )
        assert "nosuch" in err

    def test_unknown_metric_in_hierarchy_list(self, tmp_path, capsys):
        self.assert_exit_2(
            capsys,
            "hierarchy", "--rules", "av", "--metrics", "jaccard,nosuch",
            "--m", "4", "--k", "2", "--out", str(tmp_path),
        )

    def test_custom_metric_name_without_table(self, tmp_path, capsys):
        self.assert_exit_2(capsys, "check-metric", "--metric", "custom", "--m", "3")

    def test_duplicate_labels_in_model_file(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(
            {"type": "mp", "p": "3/4", "ground": ["a"], "alternatives": ["a", "a", "b"]}
        ))
        self.assert_exit_2(
            capsys, "sample", "--model-file", str(path), "--n", "3", "--seed", "1",
            "--out", str(tmp_path),
        )

    def test_duplicate_ground_label_in_model_file(self, tmp_path, capsys):
        # used to be read as the committee {a} and sampled with exit 0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(
            {"type": "mp", "p": "3/4", "alternatives": ["a", "b", "c"], "ground": ["a", "a"]}
        ))
        err = self.assert_exit_2(
            capsys, "sample", "--model-file", str(path), "--n", "3", "--seed", "1",
            "--out", str(tmp_path),
        )
        assert "duplicate" in err

    def test_unknown_metric_kind_in_level_model_file(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "type": "level", "metric": "nosuch", "ground": ["a"],
            "alternatives": ["a", "b"], "probs": ["1/2", "1/4", "0"],
        }))
        self.assert_exit_2(
            capsys, "sample", "--model-file", str(path), "--n", "3", "--seed", "1",
            "--out", str(tmp_path),
        )

    def test_duplicate_labels_in_metric_file(self, tmp_path, capsys):
        doc = metric_to_json(random_metric(2, seed=3))
        doc["alternatives"] = ["a", "a"]
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(doc))
        self.assert_exit_2(capsys, "check-metric", "--metric-file", str(path), "--m", "2")

    def test_builtin_metric_file_without_m(self, tmp_path, capsys):
        path = tmp_path / "metric.json"
        path.write_text(json.dumps({"kind": "jaccard"}))
        self.assert_exit_2(
            capsys,
            "robust", "--rule", "av", "--metric-file", str(path), "--m", "3", "--k", "1",
            "--out", str(tmp_path),
        )

    def test_json_files_that_are_not_objects(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        self.assert_exit_2(capsys, "check-metric", "--metric-file", str(path), "--m", "2")
        self.assert_exit_2(
            capsys, "sample", "--model-file", str(path), "--n", "3", "--seed", "1",
            "--out", str(tmp_path),
        )

    def test_unknown_kind_in_metric_file(self, tmp_path, capsys):
        path = tmp_path / "metric.json"
        path.write_text(json.dumps({"kind": "nosuch", "m": 3}))
        self.assert_exit_2(capsys, "check-metric", "--metric-file", str(path), "--m", "3")

    def test_sample_without_m(self, tmp_path, capsys):
        self.assert_exit_2(
            capsys, "sample", "--model", "mp", "--p", "3/4", "--n", "3", "--seed", "1",
            "--out", str(tmp_path),
        )

    def test_sample_without_ground(self, tmp_path, capsys):
        self.assert_exit_2(
            capsys, "sample", "--model", "mp", "--p", "3/4", "--m", "4", "--n", "3",
            "--seed", "1", "--out", str(tmp_path),
        )

    def test_non_integer_n_grid(self, tmp_path, capsys):
        self.assert_exit_2(
            capsys,
            "converge", "--rule", "av", "--model", "mp", "--p", "3/4", "--m", "4",
            "--k", "2", "--ground", "a,b", "--n-grid", "5,x", "--trials", "2",
            "--seed", "3", "--out", str(tmp_path),
        )

    def test_unknown_label_in_committee_or_ground(self, tmp_path, capsys):
        profile = write_profile(tmp_path)
        err = self.assert_exit_2(
            capsys, "score", "--rule", "av", "--committee", "a,z", "--profile", profile
        )
        assert "'z'" in err
        self.assert_exit_2(
            capsys, "sample", "--model", "mp", "--p", "3/4", "--m", "4", "--ground", "a,z",
            "--n", "3", "--seed", "1", "--out", str(tmp_path),
        )

    def test_duplicate_label_in_committee_or_ground(self, tmp_path, capsys):
        profile = write_profile(tmp_path)
        err = self.assert_exit_2(
            capsys, "score", "--rule", "av", "--committee", "a,a", "--profile", profile
        )
        assert "'a,a'" in err
        self.assert_exit_2(
            capsys, "sample", "--model", "mp", "--p", "3/4", "--m", "4", "--ground", "a,b,a",
            "--n", "3", "--seed", "1", "--out", str(tmp_path),
        )

    @pytest.mark.parametrize("votes", ["a\nb,c\n", ""])
    @pytest.mark.parametrize("rule_mk,argv", [
        ((4, 2), ["score", "--committee", "a,b"]),
        ((3, 2), ["score", "--committee", "a"]),
        ((4, 1), ["winners", "--k", "1"]),
        # with no votes, the rule's own committees used to be printed
        ((2, 1), ["winners", "--k", "1"]),
        # the rule's k used to win silently over --k
        ((3, 2), ["winners", "--k", "1"]),
    ])
    def test_rule_file_over_another_m_or_k(self, tmp_path, capsys, votes, rule_mk, argv):
        rule_path = tmp_path / "rule.json"
        rule_path.write_text(json.dumps(rule_to_json(make_rule("av", *rule_mk))))
        profile = write_profile(tmp_path, "alternatives: a,b,c\n" + votes)
        err = self.assert_exit_2(
            capsys, *argv, "--rule-file", str(rule_path), "--profile", profile
        )
        assert "m={}, k={}".format(*rule_mk) in err

    @pytest.mark.parametrize("argv", [
        ["counterexample"],  # an IndexError traceback before
        ["robust", "--metric", "jaccard"],
    ])
    def test_rule_file_over_another_m_in_exact_commands(self, tmp_path, capsys, argv):
        rule_path = tmp_path / "rule.json"
        rule_path.write_text(json.dumps(rule_to_json(make_rule("av", 4, 2))))
        self.assert_exit_2(
            capsys, *argv, "--rule-file", str(rule_path), "--m", "3", "--k", "2",
            "--out", str(tmp_path),
        )

    def test_metric_file_over_another_m(self, tmp_path, capsys):
        # the m = 4 table used to be checked and reported as if --m were 4
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(metric_to_json(random_metric(4, seed=0))))
        err = self.assert_exit_2(capsys, "check-metric", "--m", "3", "--metric-file", str(path))
        assert "m=4" in err

    def test_missing_input_files(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        err = self.assert_exit_2(
            capsys, "winners", "--rule", "av", "--k", "1", "--profile", missing
        )
        assert "missing.json" in err
        self.assert_exit_2(capsys, "check-metric", "--metric-file", missing, "--m", "2")
        self.assert_exit_2(
            capsys, "counterexample", "--rule-file", missing, "--m", "4", "--k", "2",
            "--out", str(tmp_path),
        )

    @pytest.mark.parametrize("argv", [
        ["winners", "--rule", "av", "--k", "1", "--profile"],
        ["counterexample", "--m", "4", "--k", "2", "--rule-file"],
        ["check-metric", "--m", "2", "--metric-file"],
        ["sample", "--n", "3", "--seed", "1", "--model-file"],
    ])
    def test_input_file_not_utf8(self, argv, tmp_path, capsys):
        path = tmp_path / "input"
        path.write_bytes(b"alternatives: a\n\xff\n")
        err = self.assert_exit_2(capsys, *argv, str(path), "--out", str(tmp_path))
        assert "UTF-8" in err

    @pytest.mark.parametrize("argv", [
        # they exited 3, the enumeration-cap code
        ["winners", "--rule", "av", "--k", "5", "--profile", "{profile}"],
        ["winners", "--rule", "av", "--k", "0", "--profile", "{profile}"],
        ["robust", "--rule", "av", "--metric", "jaccard", "--m", "3", "--k", "0"],
        ["hierarchy", "--rules", "av", "--metrics", "jaccard", "--m", "-1", "--k", "1"],
    ])
    def test_committee_size_out_of_range(self, argv, tmp_path, capsys):
        profile = write_profile(tmp_path)
        argv = [arg.format(profile=profile) for arg in argv]
        err = self.assert_exit_2(capsys, *argv, "--out", str(tmp_path))
        assert "0 < k <= m" in err

    def test_negative_m(self, tmp_path, capsys):
        self.assert_exit_2(capsys, "check-metric", "--metric", "jaccard", "--m", "-1")

    def test_mle_check_negative_profile_count(self, tmp_path, capsys):
        err = self.assert_exit_2(
            capsys, "mle-check", "--p", "3/4", "--m", "3", "--k", "1", "--profiles", "-2",
            "--seed", "1", "--out", str(tmp_path),
        )
        assert "profiles" in err

    def test_mle_check_no_votes_per_profile(self, tmp_path, capsys):
        err = self.assert_exit_2(
            capsys, "mle-check", "--p", "3/4", "--m", "3", "--k", "1", "--profiles", "2",
            "--n-max", "0", "--seed", "1", "--out", str(tmp_path),
        )
        assert "n_max" in err

    @pytest.mark.parametrize("m", [64, 70])
    def test_mle_check_wider_than_63(self, m, tmp_path, capsys, monkeypatch):
        # each vote was one numpy draw below 2^m, which ended in a ValueError traceback
        def drawn(*args, **kwargs):
            raise AssertionError("a profile was drawn")

        monkeypatch.setattr("numpy.random.default_rng", drawn)
        err = self.assert_exit_2(
            capsys, "mle-check", "--p", "3/4", "--m", str(m), "--k", "2", "--profiles", "2",
            "--seed", "1", "--out", str(tmp_path / "out"),
        )
        assert "m <= 63" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        # each ended in numpy's ValueError traceback
        ["sample", "--model", "mp", "--p", "3/4", "--m", "3", "--ground", "a", "--n", "3"],
        ["converge", "--rule", "av", "--model", "mp", "--p", "3/4", "--m", "3", "--ground", "a"],
        ["mle-check", "--p", "3/4", "--m", "3", "--k", "1", "--profiles", "2"],
    ])
    def test_negative_seed(self, argv, tmp_path, capsys, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("built before the seed was checked")

        for name in ("abcc.cli.default_universe", "abcc.rules.make_rule",
                     "abcc.experiments.mle_equivalence_check"):
            monkeypatch.setattr(name, built)
        err = self.assert_exit_2(capsys, *argv, "--seed", "-1", "--out", str(tmp_path / "out"))
        assert "--seed" in err
        assert not (tmp_path / "out").exists()


class TestManifests:
    def test_every_output_referenced_once(self, tmp_path, capsys):
        run(
            capsys,
            "converge", "--rule", "av", "--model", "mp", "--p", "3/4", "--m", "4",
            "--k", "2", "--ground", "a,b", "--n-grid", "4", "--trials", "4",
            "--seed", "5", "--out", str(tmp_path),
        )
        run(
            capsys,
            "taxonomy", "--metric", "trivial", "--m", "4", "--k", "2",
            "--out", str(tmp_path),
        )
        manifest_lines = (tmp_path / "manifest.jsonl").read_text().strip().splitlines()
        assert len(manifest_lines) == 2
        referenced = []
        for line in manifest_lines:
            record = json.loads(line)
            referenced.extend(record["outputs"])
            assert record["tool_version"]
            assert record["rng"]
            assert record["config_hash"]
        produced = {
            str(p) for p in tmp_path.iterdir() if p.name != "manifest.jsonl"
        }
        assert sorted(referenced) == sorted(produced)

    def test_config_hash_recomputes(self, tmp_path, capsys):
        import hashlib

        run(
            capsys,
            "taxonomy", "--metric", "trivial", "--m", "3", "--k", "2",
            "--out", str(tmp_path),
        )
        record = json.loads((tmp_path / "manifest.jsonl").read_text())
        canonical = json.dumps(record["config"], sort_keys=True, default=str)
        assert hashlib.sha256(canonical.encode()).hexdigest() == record["config_hash"]


class TestEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        profile = tmp_path / "votes.txt"
        profile.write_text(PROFILE_AB)
        result = subprocess.run(
            [sys.executable, "-m", "abcc.cli", "score", "--rule", "av",
             "--committee", "a,b", "--profile", str(profile)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "3"
