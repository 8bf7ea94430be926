"""Every exhaustive enumeration is refused over its limit on entry.

The three limits and their checks live in `abcc.core`: m <= MAX_M for the
2^m sets (`check_sets`), C(m, k) <= MAX_COMMITTEES for the committees
(`check_committees`, which `committee_masks` calls) and 4^m <= MAX_MATRIX_CELLS for the full distance
matrix (`check_matrix`). Each public function that enumerates must raise
CapExceededError before it builds a distance row or allocates anything
sizeable.
"""

import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from abcc.core import (
    MAX_COMMITTEES,
    MAX_DRAW_CELLS,
    MAX_M,
    MAX_MATRIX_CELLS,
    AlternativeSet,
    Committee,
    Profile,
    committee_masks,
    default_universe,
    enumerate_committees,
    enumerate_subsets,
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
    neighborhood_count,
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
from abcc.rules import is_nontrivial, make_rule, winners
from conftest import run_cli

S = MAX_M + 1  # 2^17 sets
C, K = 20, 10  # C(20, 10) = 184,756 committees
X = 13  # 4^13 matrix cells


def committee(m, mask):
    return Committee(AlternativeSet(mask, m), mask.bit_count())


def jaccard(m):
    return make_metric("jaccard", m)


def av(m, k=1):
    return make_rule("av", m, k)


def product(m, k=1):
    return make_mp(Fraction(3, 4), default_universe(m), committee(m, (1 << k) - 1))


CASES = {
    # the 2^m sets
    "enumerate_subsets": lambda: enumerate_subsets(default_universe(S)),
    "level_structure": lambda: level_structure(jaccard(S), committee(S, 1)),
    "neighborhood_count": lambda: neighborhood_count(jaccard(S), committee(S, 1), 0, 1, 0),
    "is_majority_concentric": lambda: is_majority_concentric(jaccard(S), 1),
    "is_natural": lambda: is_natural(jaccard(S), 1),
    "is_similarity": lambda: is_similarity(jaccard(S), 1),
    "is_nontrivial": lambda: is_nontrivial(av(S)),
    "prob_table": lambda: product(S).prob_table(),
    "audit_d_monotonic": lambda: audit_d_monotonic(product(S)),
    "staggered_level_model": lambda: staggered_level_model(jaccard(S), committee(S, 1)),
    "av_refutation_model": lambda: av_refutation_model(jaccard(S), committee(S, 1), 0, 1, 1),
    "jump_counterexample": lambda: jump_counterexample(make_rule("cc", S, 1)),
    "expected_gap": lambda: expected_gap(av(S), product(S), committee(S, 1), committee(S, 2)),
    "accuracy_classify": lambda: accuracy_classify(av(S), product(S)),
    "gap_analysis": lambda: gap_analysis(av(S), jaccard(S), committee(S, 1), committee(S, 2)),
    "robustness_verdict": lambda: robustness_verdict(av(S), jaccard(S)),
    # the C(m, k) committees
    "enumerate_committees": lambda: enumerate_committees(default_universe(C), K),
    "committee_masks": lambda: committee_masks(C, K),
    "winners": lambda: winners(av(C, K), Profile(())),
    "accuracy_trial": lambda: accuracy_trial(av(C, K), product(C, K), 1, 1, 0),
    "mle_committees": lambda: mle_committees(Profile(()), Fraction(3, 4), C, K),
    "robustness_verdict_committees": lambda: robustness_verdict(av(C, K), jaccard(C)),
    # the full distance matrix
    "check_metric_axioms": lambda: check_metric_axioms(jaccard(X)),
    "jump_counterexample_matrix": lambda: jump_counterexample(make_rule("cc", X, 1)),
    "is_alternative_independent": lambda: is_alternative_independent(jaccard(X)),
    "random_metric_table": lambda: random_metric(X, seed=1),
    "random_metric_signature": lambda: random_metric(X, seed=1, family="signature"),
    "taxonomy_report": lambda: taxonomy_report(jaccard(X), 1),
    "hierarchy_report": lambda: hierarchy_report([av(X, 3)], [jaccard(X)]),
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
