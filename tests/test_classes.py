"""The overlap-class verdict of signature metrics against the pair-by-pair
sweep that table metrics take.

A builtin metric written out as a full table is the same distance, but its
verdict sweeps every ordered committee pair over all 2^m votes. Both must
give the same status, the same `per_pair_summary` rows and the same
witness (ground, rival, level, gap and level probabilities); only the
witness model's metric document differs, a builtin name against the table.
This is checked for every builtin metric and rule of the catalog, plus
`thiele` and `p_geometric`, at every (m, k) with m <= 8, for `example2` at
m = 3, and for random counting rules, some of them decreasing in x. The
nontriviality check, which runs on the same classes, is checked against
the sweep over all pairs and votes in reference.py, and so is the degenerate
witness's "identically zero" flag, which both verdict forms read off the
class cells. At m = 40 no sweep exists: there the witness is checked against
the level sizes and an expected gap summed over the vote cells with the
metric's own distances.

The expected gaps of a signature or product model, and `gap_analysis`, run
on the same class rows (`rules.level_gap_rows`): they must equal those of
the same model over the metric written as a table at m <= 7, and the closed
forms of AV under a product model at m = 40 and m = 200.
"""

import functools
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import reference
from abcc.core import (
    AlternativeSet,
    Committee,
    committee_masks,
    default_universe,
    feasible_pairs,
    first_rival,
)
from abcc.metrics import (
    DistanceMetric,
    level_structure,
    make_metric,
    random_metric,
    taxonomy_report,
)
from abcc.noise import expected_gaps, make_level_model, make_mp
from abcc.oracle import (
    ACCURATE,
    DEGENERATE_NOT_ROBUST,
    NOT_ACCURATE,
    NOT_ROBUST,
    ClassSummary,
    accuracy_classify,
    gap_analysis,
    robustness_verdict,
    sample_size_bound,
    verdict_to_json,
)
from abcc.rules import AbccRule, is_nontrivial, make_rule
from conftest import random_strict_model

BUILTIN_METRICS = ["set_difference", "jaccard", "zelinka", "bunke_shearer", "trivial"]
SIZES = [(m, k) for m in range(1, 9) for k in range(1, m + 1)]


def table_form(metric):
    """The metric as a table over all unordered pairs of sets."""
    table = {(a, b): metric.d(a, b) for a, b in combinations(range(1 << metric.m), 2)}
    return DistanceMetric(metric.name, metric.m, table=table)


@functools.cache
def as_table(kind, m):
    """The builtin metric as a table, one per (kind, m), so that its level
    structures are built once."""
    return table_form(make_metric(kind, m))


def catalog(m, k):
    kinds = ["av", "cc", "pav", "sav", "mc", "sainte_lague"]
    if (m, k) == (4, 2):
        kinds += ["special6_f", "special6_fprime"]
    rules = [make_rule(kind, m, k) for kind in kinds]
    rules.append(make_rule("thiele", m, k, weights=[(3 * i) % 4 for i in range(1, k + 1)]))
    rules.append(make_rule("p_geometric", m, k, p=Fraction(3, 2)))
    return rules


def flat_rule(m, k):
    """f(x, y) = y: every committee scores every vote alike."""
    return make_rule("custom", m, k, table={xy: Fraction(xy[1]) for xy in feasible_pairs(m, k)})


def assert_same_verdict(rule, metric):
    universe = default_universe(rule.m)
    verdict = robustness_verdict(rule, metric)
    by_pairs = robustness_verdict(rule, as_table(metric.name, metric.m))
    doc, want = verdict_to_json(verdict, universe), verdict_to_json(by_pairs, universe)
    assert "per_class_summary" not in doc
    if doc["witness"] is not None:
        assert doc["witness"]["model"].pop("metric") == {"kind": metric.name, "m": metric.m}
        want["witness"]["model"].pop("metric")
    assert doc == want
    assert verdict.pair_summaries == by_pairs.pair_summaries
    if verdict.status == DEGENERATE_NOT_ROBUST:
        w = verdict.witness
        assert w.identically_zero == reference.identically_zero(rule, w.ground.mask, w.rival.mask)
    return verdict


def assert_nontrivial_matches(rule):
    result = is_nontrivial(rule)
    pair = None if result.witness is None else tuple(c.mask for c in result.witness)
    assert (result.value, pair) == reference.nontrivial_sweep(rule)


@pytest.mark.parametrize("m,k", SIZES)
def test_catalog_classes_match_the_pair_sweep(m, k):
    for rule in catalog(m, k):
        for kind in BUILTIN_METRICS:
            assert_same_verdict(rule, make_metric(kind, m))
        assert_nontrivial_matches(rule)


@pytest.mark.parametrize("seed", range(24))
def test_random_signature_metrics_match_their_tables(seed):
    # the seeded metrics of the acceptance checks, on the grid, against the
    # same distances as a table, which keeps the table path covered on
    # alternative-independent tables
    m, monotone, perturb = 3 + seed % 4, seed % 2 == 1, seed % 4 < 2
    metric = random_metric(m, [31, seed], family="signature", monotone=monotone, perturb=perturb)
    table = table_form(metric)
    universe = default_universe(m)
    for k in range(1, m + 1):
        ground = Committee(AlternativeSet((1 << k) - 1, m), k)
        levels, want = level_structure(metric, ground), level_structure(table, ground)
        assert (levels.values, levels.sizes) == (want.values, want.sizes)
        assert taxonomy_report(metric, k) == taxonomy_report(table, k)
        for kind in ("av", "cc", "pav", "sav", "mc"):
            rule = make_rule(kind, m, k)
            verdict, by_pairs = robustness_verdict(rule, metric), robustness_verdict(rule, table)
            assert all(isinstance(row, ClassSummary) for row in verdict.rows)
            # the witness model writes either metric as the same custom table
            assert verdict_to_json(verdict, universe) == verdict_to_json(by_pairs, universe)
            assert verdict.pair_summaries == by_pairs.pair_summaries


def test_degenerate_witnesses_cover_both_flags():
    # scores that ignore the overlap tie every pair vote by vote; cc x trivial
    # only cancels over the votes at distance 1
    flags = [
        assert_same_verdict(rule, make_metric("trivial", 4)).witness.identically_zero
        for rule in (flat_rule(4, 2), make_rule("cc", 4, 2))
    ]
    assert flags == [True, False]


def test_example2_classes_match_the_pair_sweep():
    statuses = set()
    for k in (1, 2, 3):
        for rule in catalog(3, k):
            statuses.add(assert_same_verdict(rule, make_metric("example2", 3)).status)
    assert NOT_ROBUST in statuses


def table_rule(m, k, values):
    """A counting rule with the drawn non-negative integer scores; a table that
    is not non-decreasing in x bypasses make_rule's check."""
    table = {xy: Fraction(v) for xy, v in zip(sorted(feasible_pairs(m, k)), values)}
    if all(table[(x, y)] <= table.get((x + 1, y), table[(x, y)]) for x, y in table):
        return make_rule("custom", m, k, table=table)
    return AbccRule("custom", m, k, table)


@st.composite
def rules(draw):
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, m))
    cells = len(feasible_pairs(m, k))
    values = draw(st.lists(st.integers(0, 3), min_size=cells, max_size=cells))
    return table_rule(m, k, values)


@settings(max_examples=150, deadline=None)
@given(rules(), st.sampled_from(BUILTIN_METRICS))
def test_random_rules_match_the_pair_sweep(rule, kind):
    assert_same_verdict(rule, make_metric(kind, rule.m))
    assert_nontrivial_matches(rule)


def test_decreasing_rule_at_m40_is_not_robust_with_a_checked_witness():
    m, k = 40, 3
    # every vote scores a committee 3 - |C ∩ S|: more overlap, less score
    rule = AbccRule("custom", m, k, {(x, y): Fraction(k - x) for x, y in feasible_pairs(m, k)})
    metric = make_metric("jaccard", m)
    verdict = robustness_verdict(rule, metric)
    assert verdict.status == NOT_ROBUST
    witness = verdict.witness
    assert witness.ground.mask == 0b111 and witness.gap < 0
    probs, levels = witness.model.level_probs, witness.model.levels
    assert all(p > q for p, q in zip(probs, probs[1:])) and probs[-1] > 0
    # the level sizes count the sets at each distance from the ground
    by_value = dict.fromkeys(levels.values, 0)
    for x in range(k + 1):
        for y in range(m - k + 1):
            by_value[metric.d(0b111, (1 << x) - 1 | ((1 << y) - 1) << k)] += (
                comb(k, x) * comb(m - k, y))
    assert list(by_value.values()) == list(levels.sizes) and sum(levels.sizes) == 1 << m
    assert sum(p * size for p, size in zip(probs, levels.sizes)) == 1
    assert expected_gap(rule, metric, witness) == witness.gap


def expected_gap(rule, metric, witness):
    """E[f(U, S) - f(V, S)] under the witness model, summed over the counts
    (a, b, c, d) of S in U ∩ V, U ∖ V, V ∖ U and the rest, with one
    representative vote per cell placed at its distance from U by `metric.d`."""
    u, v, m = witness.ground.mask, witness.rival.mask, rule.m
    regions = [u & v, u & ~v, v & ~u, ((1 << m) - 1) & ~(u | v)]
    members = [[i for i in range(m) if part >> i & 1] for part in regions]
    level = {value: t for t, value in enumerate(witness.model.levels.values)}
    probs = witness.model.level_probs
    total = Fraction(0)
    for counts in product(*(range(len(part) + 1) for part in members)):
        vote = sum(1 << i for part, n in zip(members, counts) for i in part[:n])
        votes = prod(comb(len(part), n) for part, n in zip(members, counts))
        size = vote.bit_count()
        gap = rule.table[(u & vote).bit_count(), size] - rule.table[(v & vote).bit_count(), size]
        total += votes * gap * probs[level[metric.d(u, vote)]]
    return total


def test_nontriviality_witness_is_the_first_failing_pair():
    # scores that ignore the overlap separate no pair: the first ground and
    # its smallest rival, which meets it in k - 1 members
    m, k = 9, 4
    rule = make_rule("custom", m, k, table={xy: Fraction(xy[1]) for xy in feasible_pairs(m, k)})
    result = is_nontrivial(rule)
    first = Committee(AlternativeSet(0b1111, m), k)
    assert not result and result.witness == (first, Committee(AlternativeSet(0b10111, m), k))
    assert_nontrivial_matches(rule)


@pytest.mark.parametrize("m", range(1, 8))
def test_signature_gaps_match_the_table_metric(m):
    rng = np.random.default_rng([31, m])
    kinds = BUILTIN_METRICS + (["example2"] if m == 3 else [])
    u = default_universe(m)
    for k in range(1, m + 1):
        ground = Committee(AlternativeSet((1 << k) - 1, m), k)
        masks = committee_masks(m, k)
        mp = [make_mp(p, u, ground) for p in (Fraction(3, 4), Fraction(2, 3))]
        twins = [
            (model, make_level_model(as_table("set_difference", m), ground,
                                     model.level_form()[1]))
            for model in mp
        ]
        for kind in kinds:  # a random strict model, and the same over the table
            model = random_strict_model(make_metric(kind, m), ground, rng)
            twins.append((model, make_level_model(as_table(kind, m), ground, model.level_probs)))
        for rule in catalog(m, k):
            for model, table in twins:
                gaps = expected_gaps(rule, model, ground.mask, masks)
                assert gaps == expected_gaps(rule, table, ground.mask, masks)
            if rule.name in ("av", "pav", "mc", "sav"):
                for kind in kinds:
                    for vmask in masks:
                        rival = Committee(AlternativeSet(vmask, m), k)
                        got = gap_analysis(rule, make_metric(kind, m), ground, rival)
                        want = gap_analysis(rule, as_table(kind, m), ground, rival)
                        assert (got.coefficients, got.prefix) == (want.coefficients, want.prefix)


def test_av_under_a_product_model_at_m200_gaps_by_overlap():
    # a rival of overlap j loses k - j members, each 2p - 1 more likely in a vote
    m, k, p = 200, 5, Fraction(3, 4)
    ground = Committee(AlternativeSet((1 << k) - 1, m), k)
    model = make_mp(p, default_universe(m), ground)
    rivals = [first_rival(k, j) for j in range(k)]
    gaps = expected_gaps(make_rule("av", m, k), model, ground.mask, rivals)
    assert gaps == [(k - j) * (2 * p - 1) for j in range(k)]


def test_av_accuracy_and_sample_size_at_m40():
    m, k = 40, 3
    av = make_rule("av", m, k)
    model = make_mp(Fraction(3, 4), default_universe(m), Committee(AlternativeSet(0b111, m), k))
    report = accuracy_classify(av, model)
    assert report.status == ACCURATE and len(report.gaps) == comb(m, k) - 1
    assert report.worst()[1] == Fraction(1, 2)
    # n = ceil(6^2 / (2 (1/2)^2) ln(2 * 40^3 / 0.05)) = ceil(72 ln 2,560,000)
    assert sample_size_bound(av, model, 0.05).n == 1063


# ---------------------------------------------------------------------------
# The zero-gap split of `accuracy_classify`: on a grid model by the vote cells
# of each overlap class, against the vote-by-vote sweep of the same model over
# the metric written as a table.

def accuracy_twins(m, k, ground, rng):
    """(grid model, the same model over a table metric) pairs at this ground:
    MP 3/4, and a random strict model per builtin with and without a zero tail."""
    mp = make_mp(Fraction(3, 4), default_universe(m), ground)
    twins = [(mp, make_level_model(as_table("set_difference", m), ground, mp.level_form()[1]))]
    for kind in BUILTIN_METRICS:
        for zero_tail in (False, True):
            if zero_tail and level_structure(make_metric(kind, m), ground).spn == 0:
                continue
            model = random_strict_model(make_metric(kind, m), ground, rng, zero_tail=zero_tail)
            twins.append((model, make_level_model(as_table(kind, m), ground, model.level_probs)))
    return twins


def assert_same_accuracy(rule, model, twin):
    got, want = accuracy_classify(rule, model), accuracy_classify(rule, twin)
    assert (got.status, got.gaps, got.rival_status) == (want.status, want.gaps, want.rival_status)
    return set(got.rival_status.values())


@pytest.mark.parametrize("m", range(2, 6))
def test_zero_gap_split_on_class_cells_matches_the_vote_sweep(m):
    rng = np.random.default_rng([17, m])
    seen = set()
    for k in range(1, m):
        masks = committee_masks(m, k)
        scripted = [flat_rule(m, k)]
        scripted += [table_rule(m, k, rng.integers(0, 3, size=len(feasible_pairs(m, k))))
                     for _ in range(6)]
        for umask in (masks[0], masks[-1]):  # the first committee and another ground
            ground = Committee(AlternativeSet(umask, m), k)
            for model, twin in accuracy_twins(m, k, ground, rng):
                for rule in catalog(m, k) + scripted:
                    seen |= assert_same_accuracy(rule, model, twin)
    if m >= 3:
        assert {"zero_tie", "zero_mean"} <= seen


@pytest.mark.parametrize("m", [17, 40])
def test_flat_rule_ties_every_rival_past_the_set_cap(m):
    # the zero gaps used to be split over the levels of all 2^m votes
    k = 2
    ground = Committee(AlternativeSet(0b11, m), k)
    model = make_mp(Fraction(3, 4), default_universe(m), ground)
    report = accuracy_classify(flat_rule(m, k), model)
    assert report.status == NOT_ACCURATE and len(report.gaps) == comb(m, k) - 1
    assert set(report.rival_status.values()) == {"zero_tie"}
