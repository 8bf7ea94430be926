"""Every exhaustive enumeration is refused over its limit on entry.

The limits and their checks live in `abcc.core`: m <= MAX_M for the
2^m sets (`check_sets`), C(m, k) <= MAX_COMMITTEES for the committees
(`check_committees`, which `committee_masks` calls), 4^m <= MAX_MATRIX_CELLS for a table
metric's full distance matrix (`check_matrix`) and MAX_CLASS_WORK for the overlap classes of a
signature-metric verdict and of the nontriviality check (`check_classes`).
Each public function that enumerates must raise CapExceededError before it
builds a distance row or allocates anything sizeable. A signature metric's
level structure, verdict, AV refutation model and majority-concentricity
check never list the 2^m sets, so they are capped by the classes, not by
m; a table metric's still are, so the cases of the refutation model and
of the concentricity check take a table metric. A signature metric's
axiom check and taxonomy build no matrix, so they are held to m <= MAX_M,
and a table metric's to the matrix cap: `random_metric` draws a signature
metric within the first and a table metric within the second.
"""

import json
import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from abcc.core import (
    MAX_CLASS_WORK,
    MAX_COMMITTEES,
    MAX_DRAW_CELLS,
    MAX_M,
    MAX_MATRIX_CELLS,
    AlternativeSet,
    Committee,
    Profile,
    committee_masks,
    default_universe,
)
from abcc.errors import CapExceededError
from abcc.experiments import accuracy_trial, hierarchy_report, mle_committees
from abcc.metrics import (
    DistanceMetric,
    check_metric_axioms,
    is_alternative_independent,
    is_majority_concentric,
    is_natural,
    is_similarity,
    level_structure,
    make_metric,
    random_metric,
    taxonomy_report,
)
from abcc.noise import (
    audit_d_monotonic,
    av_refutation_model,
    jump_counterexample,
    make_mp,
    staggered_level_model,
)
from abcc.oracle import accuracy_classify, expected_gap, gap_analysis, robustness_verdict
from abcc.rules import AbccRule, is_nontrivial, make_rule, winners
from conftest import run_cli

S = MAX_M + 1  # 2^17 sets
C, K = 20, 10  # C(20, 10) = 184,756 committees
X = 13  # 4^13 matrix cells


def committee(m, mask):
    return Committee(AlternativeSet(mask, m), mask.bit_count())


def jaccard(m):
    return make_metric("jaccard", m)


def table(m):
    """A table metric (every distance 1): its levels come from a row over all 2^m sets."""
    return DistanceMetric("table", m, table={}, default=Fraction(1))


def over_classes():
    """A rule whose overlap classes are over MAX_CLASS_WORK; its table is never read."""
    return AbccRule("huge", 10**7, 3, {})


def av(m, k=1):
    return make_rule("av", m, k)


def product(m, k=1):
    return make_mp(Fraction(3, 4), default_universe(m), committee(m, (1 << k) - 1))


CASES = {
    # the 2^m sets
    "level_structure": lambda: level_structure(table(S), committee(S, 1)),
    "level_of": lambda: level_structure(jaccard(S), committee(S, 1)).level_of,
    "is_majority_concentric": lambda: is_majority_concentric(table(S), 1),
    "is_natural": lambda: is_natural(jaccard(S), 1),
    "is_similarity": lambda: is_similarity(jaccard(S), 1),
    "check_metric_axioms_signature": lambda: check_metric_axioms(jaccard(S)),
    "taxonomy_report_signature": lambda: taxonomy_report(jaccard(S), 1),
    "hierarchy_report_signature": lambda: hierarchy_report([av(S, 3)], [jaccard(S)]),
    "random_metric_signature": lambda: random_metric(S, seed=1, family="signature"),
    "is_nontrivial": lambda: is_nontrivial(over_classes()),
    "audit_d_monotonic": lambda: audit_d_monotonic(product(S)),
    "staggered_level_model": lambda: staggered_level_model(table(S), committee(S, 1)),
    "av_refutation_model": lambda: av_refutation_model(table(S), committee(S, 1), 0, 1, 1),
    "jump_counterexample": lambda: jump_counterexample(make_rule("cc", S, 1)),
    "expected_gap": lambda: expected_gap(AbccRule("huge", 200, 100, {}), product(200, 100),
                                         committee(200, (1 << 100) - 1),
                                         committee(200, (1 << 101) - 2)),
    "accuracy_classify": lambda: accuracy_classify(av(C, K), product(C, K)),
    "gap_analysis": lambda: gap_analysis(over_classes(), jaccard(10**7),
                                         committee(10**7, 0b111), committee(10**7, 0b1011)),
    "robustness_verdict": lambda: robustness_verdict(av(S), table(S)),
    "robustness_verdict_classes": lambda: robustness_verdict(over_classes(), jaccard(10**7)),
    # the C(m, k) committees
    "committee_masks": lambda: committee_masks(C, K),
    "winners": lambda: winners(av(C, K), Profile(())),
    "accuracy_trial": lambda: accuracy_trial(av(C, K), product(C, K), 1, 1, 0),
    "mle_committees": lambda: mle_committees(Profile(()), Fraction(3, 4), C, K),
    "robustness_verdict_committees": lambda: robustness_verdict(av(C, K), table(C)),
    # the full distance matrix, which only a table metric's checks build
    "check_metric_axioms": lambda: check_metric_axioms(table(X)),
    "jump_counterexample_matrix": lambda: jump_counterexample(make_rule("cc", X, 1)),
    "is_alternative_independent": lambda: is_alternative_independent(table(X)),
    "random_metric_table": lambda: random_metric(X, seed=1),
    "taxonomy_report": lambda: taxonomy_report(table(X), 1),
    "hierarchy_report": lambda: hierarchy_report([av(X, 3)], [table(X)]),
}


def test_limit_values():
    assert (MAX_M, MAX_COMMITTEES, MAX_MATRIX_CELLS) == (16, 100_000, 4**12)
    assert comb(C, K) > MAX_COMMITTEES and 1 << 2 * X > MAX_MATRIX_CELLS


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_refused_on_entry(call, monkeypatch):
    def no_rows(self, masks, terms=1):
        raise AssertionError("a distance row was built")

    monkeypatch.setattr(DistanceMetric, "rows", no_rows)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


def test_converge_refuses_committees_before_labels(tmp_path):
    # the 2M labels and a pav table over 2M alternatives used to be built,
    # and the first trial's argmax to start on C(2M, 3) committees
    argv = ["converge", "--rule", "pav", "--model", "mp", "--p", "3/4", "--m", "2000000",
            "--ground", "x0,x1,x2", "--trials", "1", "--n-grid", "1", "--seed", "1"]
    tracemalloc.start()
    try:
        code, out, err = run_cli([*argv, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err.startswith("error: C(2000000,3)=") and err.count("\n") == 1
    assert peak < 1 << 20


def test_sample_is_not_capped_by_committees(tmp_path):
    # C(200, 5) is over the committee cap; sampling never enumerates them
    model = ["--model", "mp", "--p", "3/4", "--m", "200", "--ground", "x0,x1,x2,x3,x4",
             "--seed", "1", "--out", str(tmp_path)]
    assert comb(200, 5) > MAX_COMMITTEES
    assert run_cli(["sample", *model, "--n", "3"])[0] == 0
    assert run_cli(["converge", "--rule", "av", *model, "--trials", "1", "--n-grid", "3"])[0] == 3


HUGE = str(10**15)
MP8 = ["--model", "mp", "--p", "3/4", "--m", "8", "--ground", "a,b,c", "--seed", "1"]


@pytest.mark.parametrize("argv", [
    ["sample", *MP8, "--n", HUGE],
    ["converge", "--rule", "av", *MP8, "--n-grid", HUGE, "--trials", "1"],
    ["mle-check", "--p", "3/4", "--m", "8", "--k", "3", "--profiles", "1", "--n-max", HUGE,
     "--seed", "1"],
], ids=["sample", "converge", "mle-check"])
def test_draws_over_the_cap_are_refused_at_once(argv, tmp_path, monkeypatch):
    # each ended in numpy's _ArrayMemoryError traceback, exit 1
    def built(*args, **kwargs):
        raise AssertionError("built before the draws were checked")

    for name in ("numpy.random.default_rng", "abcc.cli.default_universe",
                 "abcc.rules.make_rule"):
        monkeypatch.setattr(name, built)
    start = time.perf_counter()
    code, out, err = run_cli([*argv, "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 0.1
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "capped" in err
    assert not (tmp_path / "out").exists()



class Admitted(Exception):
    pass


@pytest.mark.parametrize("argv, target", [
    # 500 trials at n = 10,000 and m = 8: 4.4e7 cells in all, 80,000 in one draw
    (["converge", "--rule", "av", *MP8, "--n-grid", "10,100,1000,10000", "--trials", "500"],
     "abcc.experiments.convergence_curve"),
    # 400,000 profiles of up to 12 votes at m = 8: 3.8e7 cells in all, 96 in one draw
    (["mle-check", "--p", "3/4", "--m", "8", "--k", "3", "--profiles", "400000", "--seed", "1"],
     "abcc.experiments.mle_equivalence_check"),
], ids=["converge", "mle-check"])
def test_many_small_draws_are_admitted(argv, target, tmp_path, monkeypatch):
    # the cap bounds one draw, which each trial or profile drops before the next
    assert 500 * 11110 * 8 > MAX_DRAW_CELLS and 400000 * 12 * 8 > MAX_DRAW_CELLS

    def reached(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(target, reached)
    with pytest.raises(Admitted):
        run_cli([*argv, "--out", str(tmp_path / "out")])


def test_class_work_over_the_cap_is_refused_at_once(tmp_path, monkeypatch):
    # about 3e13 class cells, each with vote counts up to C(1000, 500): hours of work
    def built(*args, **kwargs):
        raise AssertionError("built before the class work was checked")

    for name in ("abcc.cli.default_universe", "abcc.rules.make_rule",
                 "abcc.metrics.make_metric"):
        monkeypatch.setattr(name, built)
    argv = ["robust", "--rule", "pav", "--metric", "jaccard", "--m", "2000", "--k", "1000"]
    start = time.perf_counter()
    code, out, err = run_cli([*argv, "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 0.1
    assert code == 3 and out == ""
    assert err.startswith("error: m=2000, k=1000: ") and err.count("\n") == 1
    assert str(MAX_CLASS_WORK) in err
    assert not (tmp_path / "out").exists()


def test_metric_file_is_refused_by_the_set_cap_before_it_is_read(tmp_path):
    # a metric file may hold a table, whose verdict sweeps all 2^m sets; the
    # file does not exist, so reading it would exit 2
    missing = str(tmp_path / "metric.json")
    argv = ["robust", "--rule", "av", "--metric-file", missing, "--m", str(S), "--k", "2"]
    code, out, err = run_cli([*argv, "--out", str(tmp_path / "out")])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "2^m sets" in err


def test_signature_levels_and_verdicts_are_not_capped_by_m():
    # the grid of a signature metric at m = 40 has 4 x 38 cells, not 2^40 sets
    m = 40
    ground = committee(m, 0b111)
    levels = level_structure(jaccard(m), ground)
    assert sum(levels.sizes) == 1 << m and len(levels.cells) == 4
    assert robustness_verdict(make_rule("pav", m, 3), jaccard(m)).status == "robust"
    assert is_nontrivial(make_rule("cc", m, 3)).ok
    assert is_majority_concentric(jaccard(m), 3)
    model = staggered_level_model(jaccard(m), ground)
    assert sum(q * size for q, size in zip(model.level_probs, levels.sizes)) == 1
    with pytest.raises(CapExceededError):
        levels.level_of


def test_signature_concentricity_lists_no_sets(monkeypatch):
    # it counted balls on a (2^m x m) incidence array under check_sets; AV's
    # level gap row of one swap, on the grid, decides it at any m
    def refuse(*args, **kwargs):
        raise AssertionError("the 2^m sets were listed")

    monkeypatch.setattr(DistanceMetric, "rows", refuse)
    monkeypatch.setattr("abcc.metrics.check_sets", refuse)
    for kind in ("set_difference", "jaccard", "zelinka", "bunke_shearer", "trivial"):
        assert is_majority_concentric(make_metric(kind, 1000), 10), kind


def test_random_signature_metric_over_the_matrix_cap():
    # it listed the C(2^m, 2) pairs of a table, and was refused at m = 13
    assert 1 << 2 * 14 > MAX_MATRIX_CELLS
    start = time.perf_counter()
    metric = random_metric(14, seed=1, family="signature")
    assert time.perf_counter() - start < 2
    assert check_metric_axioms(metric) and is_alternative_independent(metric)


def test_signature_grid_over_the_class_cap_is_refused_at_once(tmp_path):
    # the (k+1) x (m-k+1) grid and its binomial row took 1.3 s and 204 MiB at m = 30,000
    m = 30_000
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CapExceededError):
            level_structure(jaccard(m), committee(m, 1))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 1 << 18
    # sampling a level model builds the grid first: it peaked at 513 MiB before exit 2
    argv = ["sample", "--model", "level", "--metric", "jaccard", "--m", "50000", "--ground", "x0",
            "--probs", "1/2,1/4", "--n", "1", "--seed", "1", "--out", str(tmp_path / "out")]
    code, out, err = run_cli(argv)
    assert code == 3 and out == ""
    assert err.startswith("error: m=50000, k=1: ") and err.count("\n") == 1


def test_signature_verdict_at_m200_lists_its_classes(tmp_path):
    # C(200, 5)^2 pairs are over MAX_PAIR_ROWS: one row per overlap class
    argv = ["robust", "--rule", "pav", "--metric", "jaccard", "--m", "200", "--k", "5"]
    start = time.perf_counter()
    code, out, err = run_cli([*argv, "--out", str(tmp_path)])
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (0, '{"status": "robust"}\n', "")
    doc = json.loads((tmp_path / "robust_pav_jaccard_m200k5.json").read_text())
    assert "per_pair_summary" not in doc and doc["witness"] is None
    rows = doc["per_class_summary"]
    assert [row["j"] for row in rows] == [0, 1, 2, 3, 4]
    assert sum(row["pairs"] for row in rows) == comb(200, 5) * (comb(200, 5) - 1)
    assert all(row["positive_below_last"] and not row["degenerate"] for row in rows)
