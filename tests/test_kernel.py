"""The exact integer kernel against the brute-force Fraction loops in
reference.py: level gap coefficients, expected gaps under level and
product models, winner sets, distance minimizers and nontriviality, on
every catalog rule and builtin metric up to m = 6, on seeded random rules
and table metrics, on scores too large for int64, and on masks wider
than 62 bits."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import reference
from abcc import rules
from abcc.core import (
    AlternativeSet,
    Committee,
    Profile,
    committee_masks,
    default_universe,
    feasible_pairs,
    mask_words,
    popcount,
)
from abcc.metrics import level_structure, make_metric, random_metric
from abcc.experiments import mle_committees
from abcc.noise import expected_gaps, make_mp
from abcc.oracle import _fractions, _level_gaps, accuracy_classify, robustness_verdict
from abcc.rules import argmax_committees, integer_table, is_nontrivial, make_rule, winners
from conftest import huge_rule, random_profile, random_rule, random_strict_model

BUILTIN_METRICS = ["set_difference", "jaccard", "zelinka", "bunke_shearer", "trivial"]
SMALL = [(m, k) for m in range(1, 7) for k in range(1, m + 1)]


def catalog(m, k):
    rules = [make_rule(kind, m, k) for kind in ("av", "cc", "pav", "sav", "mc", "sainte_lague")]
    rules.append(make_rule("thiele", m, k, weights=[Fraction(1, j * j) for j in range(1, k + 1)]))
    rules.append(make_rule("p_geometric", m, k, p=Fraction(1, 2)))
    if (m, k) == (4, 2):
        rules += [make_rule("special6_f", 4, 2), make_rule("special6_fprime", 4, 2)]
    return rules


def metrics(m):
    out = [make_metric(kind, m) for kind in BUILTIN_METRICS]
    if m == 3:
        out.append(make_metric("example2", 3))
    return out


def committee(mask, m, k):
    return Committee(AlternativeSet(mask, m), k)


def assert_level_gaps_match(rule, metric_list):
    masks = committee_masks(rule.m, rule.k)
    for umask in masks:
        ground = committee(umask, rule.m, rule.k)
        gaps = [reference.vote_gaps(rule, umask, vmask) for vmask in masks]
        for metric in metric_list:
            levels = level_structure(metric, ground)
            coeffs, prefix, scale = _level_gaps(rule, levels, masks)
            for i, vmask in enumerate(masks):
                expected = reference.level_coefficients(levels, gaps[i])
                assert list(_fractions(coeffs[i], scale)) == expected, (rule.name, umask, vmask)
                running = np.cumsum(np.array(expected, dtype=object))
                assert list(_fractions(prefix[i], scale)) == list(running)


def assert_expected_gaps_match(rule, model):
    report = accuracy_classify(rule, model)
    table = reference.prob_table(model)
    for rival, gap in report.gaps.items():
        want, support_nonzero = reference.weighted_gap(rule, table, model.ground.mask, rival.mask)
        assert gap == want
        assert expected_gaps(rule, model, model.ground.mask, [rival.mask]) == [want]
        if gap == 0:
            assert report.rival_status[rival] == ("zero_mean" if support_nonzero else "zero_tie")


def assert_winners_match(rule, profile):
    counts = Counter(v.mask for v in profile)
    masks = committee_masks(rule.m, rule.k)
    expected = reference.winner_masks(rule, masks, counts)
    assert [c.mask for c in winners(rule, profile)] == expected


def assert_nontrivial_matches(rule):
    result = is_nontrivial(rule)
    value, pair = reference.is_nontrivial(rule)
    assert result.ok == value
    assert (None if result.witness is None else tuple(c.mask for c in result.witness)) == pair


@pytest.mark.parametrize("m,k", SMALL)
def test_catalog_level_gaps_exhaustive(m, k):
    for rule in catalog(m, k):
        assert_level_gaps_match(rule, metrics(m))


@pytest.mark.parametrize("m,k", SMALL)
def test_catalog_gaps_winners_and_predicates(m, k):
    rng = np.random.default_rng([m, k])
    ground = committee((1 << k) - 1, m, k)
    for rule in catalog(m, k):
        for metric in metrics(m):
            assert_expected_gaps_match(rule, random_strict_model(metric, ground, rng))
        assert_winners_match(rule, random_profile(m, 12, rng))
        assert_winners_match(rule, Profile(()))
        assert_nontrivial_matches(rule)


@pytest.mark.parametrize("m,k", [(3, 1), (4, 2), (5, 2), (5, 3), (6, 3)])
def test_random_rules_and_table_metrics(m, k):
    rng = np.random.default_rng([7, m, k])
    ground = committee((1 << k) - 1, m, k)
    for trial in range(3):
        rule = random_rule(m, k, rng)
        metric = random_metric(m, seed=[m, k, trial])
        assert_level_gaps_match(rule, [metric])
        assert_expected_gaps_match(rule, random_strict_model(metric, ground, rng))
        assert_expected_gaps_match(rule, random_strict_model(metric, ground, rng, zero_tail=True))
        assert_winners_match(rule, random_profile(m, 40, rng))
        assert_nontrivial_matches(rule)


def test_product_model_gaps():
    # at p = 1 the only vote is the ground committee: zero gaps are ties
    for m, k in SMALL:
        ground = committee((1 << k) - 1, m, k)
        for p in (Fraction(1), Fraction(3, 4), Fraction(3, 5)):
            model = make_mp(p, default_universe(m), ground)
            for rule in catalog(m, k):
                assert_expected_gaps_match(rule, model)


def test_mle_distance_minimizers_match_reference():
    rng = np.random.default_rng(31)
    cases = [(4, 2, Profile(()))]  # every committee ties at zero
    for m, k in [(3, 1), (4, 2), (5, 2), (6, 3)]:
        for n in (1, 2, 7):
            cases.append((m, k, random_profile(m, n, rng)))
        votes = random_profile(m, 3, rng).votes
        cases.append((m, k, Profile(votes * 4)))  # repeated votes
    a, b, c, d = (AlternativeSet(1 << i, 4) for i in range(4))
    cases.append((4, 2, Profile((AlternativeSet(0b0011, 4), AlternativeSet(0b1100, 4)))))  # six tie
    cases.append((4, 1, Profile((a, b))))  # {a} and {b} tie at 2
    # masks past bit 62 and across 63-bit words; x69 with x1, x15 or x63 tie
    m = 70
    wide = [AlternativeSet(sum(1 << i for i in members), m) for members in ([15, 63, 69], [1, 69])]
    cases.append((m, 2, Profile((*wide, *wide, AlternativeSet(1 << 62 | 1 << 64, m)))))
    for m, k, profile in cases:
        counts = Counter(v.mask for v in profile)
        by_distance = mle_committees(profile, Fraction(3, 4), m, k).by_distance
        expected = reference.distance_minimizers(committee_masks(m, k), counts)
        assert [c.mask for c in by_distance] == expected
    assert expected == [1 << 69 | 1 << i for i in (1, 15, 63)]


def test_trivial_rule_witness_matches():
    # constant per vote size: no vote separates any pair
    m, k = 4, 2
    table = {(x, y): Fraction(y, 3) for x, y in feasible_pairs(m, k)}
    assert_nontrivial_matches(make_rule("custom", m, k, table=table))
    # only singleton votes score: {a} with a in U \ V separates every pair
    table = {(x, y): Fraction(x) if y == 1 else Fraction(0) for x, y in feasible_pairs(m, k)}
    assert_nontrivial_matches(make_rule("custom", m, k, table=table))


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_small_blocks_split_groups_and_votes(monkeypatch, cells):
    # blocks far smaller than one level or one committee row
    monkeypatch.setattr(rules, "BLOCK_CELLS", cells)
    rng = np.random.default_rng(cells)
    m, k = 5, 2
    ground = committee(0b11, m, k)
    for rule in [make_rule("pav", m, k), random_rule(m, k, rng), huge_rule(m, k)]:
        metric_list = [make_metric("jaccard", m), random_metric(m, seed=[cells, 1])]
        assert_level_gaps_match(rule, metric_list)
        for metric in metric_list:
            assert_expected_gaps_match(rule, random_strict_model(metric, ground, rng))
        assert_winners_match(rule, random_profile(m, 50, rng))
        assert_nontrivial_matches(rule)


class TestObjectFallback:
    def test_guard_boundary(self):
        rule = make_rule("custom", 2, 1, table={
            (0, 0): 0, (0, 1): 0, (1, 1): 1 << 40, (1, 2): 1 << 40,
        })
        assert integer_table(rule, (1 << 22) - 1)[0].dtype == np.int64
        assert integer_table(rule, 1 << 22)[0].dtype == object

    def test_scale_is_denominator_lcm(self):
        table, scale = integer_table(make_rule("pav", 5, 3), 1)
        assert scale == 6
        assert table[3, 4] == 11 and table[0, 2] == 0

    def test_huge_rule_takes_object_path(self):
        rule = huge_rule(5, 2)
        table, scale = integer_table(rule, 1 << 5)
        assert table.dtype == object and scale == 21

    def test_huge_rule_matches_reference(self):
        rng = np.random.default_rng(99)
        for m, k in [(4, 2), (5, 2)]:
            rule = huge_rule(m, k)
            ground = committee((1 << k) - 1, m, k)
            table_metrics = [make_metric("jaccard", m), random_metric(m, seed=[5, m])]
            assert_level_gaps_match(rule, table_metrics)
            for metric in table_metrics:
                assert_expected_gaps_match(rule, random_strict_model(metric, ground, rng))
            assert_winners_match(rule, random_profile(m, 30, rng))
            assert_nontrivial_matches(rule)

    def test_many_votes_switch_argmax_to_object(self):
        # 2^13 scaled score times 2^50 votes crosses 2^62 in the totals
        rule = make_rule("custom", 2, 1, table={
            (0, 0): 0, (0, 1): 0, (1, 1): 1 << 13, (1, 2): 1 << 13,
        })
        counts = {0b01: (1 << 50) + 1, 0b10: 1 << 50, 0b11: 3}
        assert argmax_committees(rule, counts, [0b01, 0b10]) == [0b01]
        assert reference.winner_masks(rule, [0b01, 0b10], counts) == [0b01]


class TestWideMasks:
    def test_winners_m70_k2(self):
        m, k = 70, 2
        rng = np.random.default_rng(70)
        votes = []
        for _ in range(25):
            members = rng.choice(m, size=int(rng.integers(0, 6)), replace=False)
            votes.append(AlternativeSet(sum(1 << int(i) for i in members), m))
        # make the top pair straddle bit 62 and the 63-bit word boundary
        votes += [AlternativeSet(1 << 15 | 1 << 69, m)] * 4
        votes += [AlternativeSet(1 << 63 | 1 << 69, m)] * 3
        for kind in ("av", "cc", "pav", "sav"):
            rule = make_rule(kind, m, k)
            profile = Profile(tuple(votes))
            assert_winners_match(rule, profile)
        result = winners(make_rule("av", m, k), Profile(tuple(votes)))
        assert [c.mask for c in result] == [(1 << 15) | (1 << 69)]

    @pytest.mark.parametrize("m", [1, 16, 62, 63, 64, 126, 127, 190])
    def test_popcount_at_word_boundaries(self, m):
        # masks with their top bits set, on either side of each 63-bit word edge
        rng = np.random.default_rng(m)
        full, top = (1 << m) - 1, 1 << (m - 1)
        masks = [0, full, top, top | 1, full >> 1]
        masks += [top | int("".join(map(str, rng.integers(0, 2, size=m))), 2) for _ in range(20)]
        assert popcount(mask_words(masks, m)).tolist() == [mask.bit_count() for mask in masks]

    @pytest.mark.parametrize("m", [63, 64])
    def test_winners_at_the_word_boundary(self, m):
        # one word at m = 63, two at m = 64; the leading pair holds the top bit
        rng = np.random.default_rng(m)
        votes = [
            AlternativeSet(sum(1 << int(i) for i in rng.choice(m, size=4, replace=False)), m)
            for _ in range(12)
        ]
        votes += [AlternativeSet(1 << (m - 1) | 1 << (m - 2), m)] * 3
        votes += [AlternativeSet(1 << (m - 1) | 1, m)] * 2
        for kind in ("av", "cc", "pav", "sav"):
            assert_winners_match(make_rule(kind, m, 2), Profile(tuple(votes)))


@pytest.mark.parametrize("kind,metric_kind", [("pav", "jaccard"), ("cc", "trivial"), ("av", "zelinka")])
def test_verdict_summaries_match_reference(kind, metric_kind):
    rule, metric = make_rule(kind, 5, 2), make_metric(metric_kind, 5)
    verdict = robustness_verdict(rule, metric)
    for pair in verdict.pair_summaries:
        levels = level_structure(metric, pair.ground)
        gaps = reference.vote_gaps(rule, pair.ground.mask, pair.rival.mask)
        coeffs = reference.level_coefficients(levels, gaps)
        prefix = list(np.cumsum(np.array(coeffs, dtype=object)))
        assert pair.min_prefix == min(prefix)
        assert pair.positive_below_last == any(e > 0 for e in prefix[: levels.spn])
    witness = verdict.witness
    if verdict.status == "degenerate_not_robust":
        assert witness.identically_zero == reference.identically_zero(
            rule, witness.ground.mask, witness.rival.mask
        )
