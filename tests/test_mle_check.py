"""The MLE check and the zero-gap sweep against the loops of reference.py.

`mle_equivalence_check` builds its committee masks and AV integer table
once and decides each profile by one distance sum and one kernel call; it
must count the agreeing profiles that the one-committee-at-a-time loop
counts, on every (m, k) with m <= 8. The distance route sums |C △ S| by
popcount, apart from the score kernel, so a broken kernel shows as
disagreeing profiles. `mle_committees`' two routes must give the
reference's distance minimizers and approval winners profile by
profile. `accuracy_classify` splits the zero gaps of a grid model by
overlap class and those of a table model by one `score_blocks` sweep over
the support votes, in one block or many, and must give the reference's
gaps and statuses.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import reference
from abcc import oracle, rules
from abcc.core import AlternativeSet, Committee, Profile, committee_masks, default_universe
from abcc.experiments import distance_totals, mle_committees, mle_equivalence_check
from abcc.metrics import make_metric
from abcc.noise import make_level_model, make_mp, staggered_level_model
from abcc.rules import make_rule
from conftest import random_strict_model, table_form

SIZES = [(m, k) for m in range(1, 9) for k in range(1, m + 1)]


def ground(m, k):
    return Committee(AlternativeSet((1 << k) - 1, m), k)


def mp(p, m, k):
    return make_mp(Fraction(p), default_universe(m), ground(m, k))


@pytest.mark.parametrize("m,k", SIZES)
def test_mle_check_matches_one_call_per_profile(m, k):
    for seed, n_max in [(0, 1), (1, 12)]:
        got = mle_equivalence_check(Fraction(3, 4), m, k, 12, seed, n_max)
        assert got == reference.mle_equivalence_check(m, k, 12, seed, n_max)


def test_distance_totals_are_the_summed_symmetric_differences():
    rng = np.random.default_rng(5)
    for m, k, n in [(1, 1, 0), (4, 2, 3), (8, 3, 40), (70, 2, 9)]:
        masks = committee_masks(m, k) if m < 70 else [1 << 69 | 1, 3, 1 << 63 | 1 << 62]
        votes = [int(v) for v in rng.integers(0, 1 << min(m, 62), size=n)] + [1 << (m - 1)]
        counts = Counter(votes)
        want = [sum((c ^ s).bit_count() * w for s, w in counts.items()) for c in masks]
        assert distance_totals(masks, m, counts).tolist() == want


def test_a_broken_score_kernel_fails_the_mle_check(monkeypatch):
    # the distance route does not go through the score kernel, so a kernel
    # that ranks committees upside down makes the routes disagree
    kernel = rules.committee_totals
    monkeypatch.setattr(rules, "committee_totals", lambda *args: -kernel(*args))
    agree, total = mle_equivalence_check(Fraction(3, 4), 6, 2, 20, 1)
    assert total == 20 and agree < 10


def test_mle_committees_routes_match_reference_profile_by_profile():
    rng = np.random.default_rng(13)
    samples = []
    for m, k in [(3, 1), (4, 2), (5, 5), (6, 3), (8, 4)]:
        for n in (0, 1, 2, 7, 50):
            votes = tuple(AlternativeSet(int(v), m) for v in rng.integers(0, 1 << m, size=n))
            samples.append((m, k, Profile(votes)))
    m = 70
    wide = [AlternativeSet(sum(1 << i for i in members), m) for members in ([15, 63, 69], [1, 69])]
    samples.append((m, 2, Profile((*wide, *wide, AlternativeSet(1 << 62 | 1 << 64, m)))))
    for m, k, profile in samples:
        counts = Counter(v.mask for v in profile)
        masks = committee_masks(m, k)
        result = mle_committees(profile, Fraction(3, 4), m, k)
        assert [c.mask for c in result.by_distance] == reference.distance_minimizers(masks, counts)
        assert [c.mask for c in result.by_score] == reference.winner_masks(
            make_rule("av", m, k), masks, counts
        )


@pytest.mark.parametrize("block", [1, 40, rules.BLOCK_CELLS])
def test_zero_gap_rivals_in_chunks_match_reference(monkeypatch, block):
    # p = 1 leaves the ground as the only vote, so every zero gap of cc is
    # a tie; under a trivial-metric model its overlapping rivals have zero
    # mean; a zero tail hides the farthest level from the support. The
    # table twins sweep the support votes in blocks of `block` cells.
    monkeypatch.setattr(rules, "BLOCK_CELLS", block)
    rng = np.random.default_rng(block)
    statuses = {"grid": Counter(), "table": Counter()}
    for m, k in [(4, 2), (5, 2), (6, 3)]:
        g = ground(m, k)
        trivial, jaccard = make_metric("trivial", m), make_metric("jaccard", m)
        grid = [mp("1", m, k), mp("3/5", m, k), staggered_level_model(trivial, g),
                random_strict_model(jaccard, g, rng, zero_tail=True),
                random_strict_model(jaccard, g, rng)]
        # the same models over table metrics, which take the set-indexed
        # branch; MP is a level model of set_difference
        tables = {name: table_form(make_metric(name, m))
                  for name in ("set_difference", "trivial", "jaccard")}
        twins = [make_level_model(tables["set_difference"], g, grid[1].level_form()[1])]
        twins += [make_level_model(tables[model.metric.name], g, model.level_probs)
                  for model in grid[2:]]
        twins.append(random_strict_model(tables["trivial"], g, rng, zero_tail=True))
        models = [(model, "grid") for model in grid] + [(model, "table") for model in twins]
        for rule in [make_rule(kind, m, k) for kind in ("cc", "mc", "sav")]:
            for model, form in models:
                assert (model.level_form()[0].cells is None) == (form == "table")
                report = oracle.accuracy_classify(rule, model)
                table = reference.prob_table(model)
                for rival, gap in report.gaps.items():
                    want, moves = reference.weighted_gap(
                        rule, table, model.ground.mask, rival.mask
                    )
                    status = ("positive" if want > 0 else "negative") if want else (
                        "zero_mean" if moves else "zero_tie")
                    assert (gap, report.rival_status[rival]) == (want, status)
                statuses[form].update(report.rival_status.values())
    for seen in statuses.values():
        assert seen.keys() == {"positive", "zero_mean", "zero_tie"}
