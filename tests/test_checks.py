"""Every yes/no answer that can name a witness is one `core.Check(ok, witness)`.

The metric classifiers, the metric axioms, nontriviality and the
d-monotonicity audit each return a Check that is falsy when it fails and
carries a witness exactly then; on signature metrics and on the same
metrics written as tables alike. The top jump names no witness and is a
plain bool; the hierarchy file marks it vacuous exactly when m = k.
"""

import json
from fractions import Fraction

import pytest

from abcc.core import Check, default_universe, feasible_pairs
from abcc.metrics import (
    DistanceMetric,
    check_metric_axioms,
    is_alternative_independent,
    is_majority_concentric,
    is_natural,
    is_similarity,
    make_metric,
    random_metric,
)
from abcc.noise import audit_d_monotonic, make_mp, staggered_level_model
from abcc.rules import has_top_jump, is_nontrivial, make_rule
from conftest import committee_of, run_cli, table_form

M, K = 4, 2


def loops(a, b, c):
    """|X∖Y| + |Y∖X|, but 1 from a singleton to itself: no metric."""
    return Fraction(1 if (a, b, c) == (0, 0, 1) else a + b)


def broken_table():
    """A table metric with one zero off the diagonal: positivity fails."""
    table = {(a, b): Fraction(1) for a in range(1 << M) for b in range(a + 1, 1 << M)}
    table[(1, 2)] = Fraction(0)
    return DistanceMetric("broken", M, table=table)


SIGNATURE_METRICS = [
    make_metric("jaccard", M),
    make_metric("trivial", M),
    DistanceMetric("loops", M, signature=loops),
    random_metric(M, 4, family="signature"),
]
TABLE_METRICS = [
    *(table_form(metric) for metric in SIGNATURE_METRICS[:2]),
    random_metric(M, 1),
    broken_table(),
]
CLASSIFIERS = {
    "check_metric_axioms": check_metric_axioms,
    "is_majority_concentric": lambda metric: is_majority_concentric(metric, K),
    "is_natural": lambda metric: is_natural(metric, K),
    "is_similarity": lambda metric: is_similarity(metric, K),
    "is_alternative_independent": is_alternative_independent,
}


def assert_check(result):
    assert type(result) is Check
    assert bool(result) is result.ok
    assert (result.witness is None) is result.ok
    return result.ok


@pytest.mark.parametrize("name", CLASSIFIERS)
def test_metric_classifiers_return_a_check(name):
    outcomes = {
        assert_check(CLASSIFIERS[name](metric))
        for metric in SIGNATURE_METRICS + TABLE_METRICS
        if name == "check_metric_axioms" or check_metric_axioms(metric)
    }
    assert outcomes == {True, False}


def test_an_axiom_witness_names_the_axiom_and_its_sets():
    for metric, axiom, masks in [
        (SIGNATURE_METRICS[2], "identity", (1, 1)),
        (broken_table(), "positivity", (1, 2)),
    ]:
        name, sets = check_metric_axioms(metric).witness
        assert (name, tuple(s.mask for s in sets)) == (axiom, masks)


def test_nontriviality_returns_a_check():
    flat = {xy: Fraction(xy[1]) for xy in feasible_pairs(M, K)}
    outcomes = [
        assert_check(is_nontrivial(rule))
        for rule in (make_rule("av", M, K), make_rule("custom", M, K, table=flat))
    ]
    assert outcomes == [True, False]


def test_audit_returns_a_check_on_both_metric_forms():
    u = default_universe(M)
    ground = committee_of(u, ["a", "b"])
    product = make_mp(Fraction(3, 4), u, ground)
    staggered = staggered_level_model(make_metric("trivial", M), ground, u)
    for metric in (make_metric("set_difference", M), table_form(make_metric("set_difference", M))):
        assert assert_check(audit_d_monotonic(product, metric))
        assert not assert_check(audit_d_monotonic(staggered, metric))
    assert assert_check(audit_d_monotonic(product))


def test_top_jump_is_a_bool():
    for m, k, kind, jump in [(4, 2, "av", True), (4, 2, "cc", False), (3, 3, "cc", True)]:
        assert has_top_jump(make_rule(kind, m, k)) is jump


@pytest.mark.parametrize("m,vacuous", [(3, True), (4, False)])
def test_hierarchy_marks_the_top_jump_vacuous_iff_m_equals_k(m, vacuous, tmp_path):
    argv = ["hierarchy", "--rules", "av,cc", "--metrics", "jaccard", "--m", str(m), "--k", "3",
            "--out", str(tmp_path)]
    code, _, err = run_cli(argv)
    assert code == 0, err
    doc = json.loads((tmp_path / f"hierarchy_m{m}k3.json").read_text())
    for predicates in doc["rule_predicates"].values():
        assert predicates["top_jump_vacuous"] is vacuous
