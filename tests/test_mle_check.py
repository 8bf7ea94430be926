"""The MLE check and the zero-gap sweep against the loops of reference.py.

`mle_equivalence_check` builds its committee masks and AV integer table
once and decides each profile by one distance sum and one kernel call; it
must count the agreeing profiles that the one-committee-at-a-time loop
counts, on every (m, k) with m <= 8. The distance route sums |C △ S| by
popcount, apart from the score kernel, so a broken kernel shows as
disagreeing profiles. `mle_committees`' two routes must give the
reference's distance minimizers and approval winners profile by
profile. `accuracy_classify` sweeps all its zero-gap rivals in one
`gap_rows` call, or one per chunk of rivals, and must give the
reference's gaps and statuses.
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
from abcc.noise import make_mp, staggered_level_model
from abcc.rules import make_rule
from conftest import random_strict_model

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


@pytest.mark.parametrize("batch", [1, 40, oracle.BATCH_CELLS])
def test_zero_gap_rivals_in_chunks_match_reference(monkeypatch, batch):
    # p = 1 leaves the ground as the only vote, so every zero gap of cc is
    # a tie; under a trivial-metric model its overlapping rivals have zero
    # mean; a zero tail hides the farthest level from the support
    monkeypatch.setattr(oracle, "BATCH_CELLS", batch)
    rng = np.random.default_rng(batch)
    statuses = Counter()
    for m, k in [(4, 2), (5, 2), (6, 3)]:
        trivial = make_metric("trivial", m)
        jaccard = make_metric("jaccard", m)
        models = [mp("1", m, k), mp("3/5", m, k), staggered_level_model(trivial, ground(m, k)),
                  random_strict_model(jaccard, ground(m, k), rng, zero_tail=True)]
        for rule in [make_rule(kind, m, k) for kind in ("cc", "mc", "sav")]:
            for model in models:
                report = oracle.accuracy_classify(rule, model)
                table = reference.prob_table(model)
                for rival, gap in report.gaps.items():
                    want, moves = reference.weighted_gap(
                        rule, table, model.ground.mask, rival.mask
                    )
                    status = ("positive" if want > 0 else "negative") if want else (
                        "zero_mean" if moves else "zero_tie")
                    assert (gap, report.rival_status[rival]) == (want, status)
                statuses.update(report.rival_status.values())
    assert statuses.keys() == {"positive", "zero_mean", "zero_tie"}
