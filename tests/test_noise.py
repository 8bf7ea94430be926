import json
from collections import Counter
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from abcc.core import AlternativeSet, Committee, default_universe
from abcc.errors import (
    DomainMismatchError,
    InvalidNoiseParamError,
    NoCounterexampleError,
    NotMonotonicError,
    NotNormalizedError,
    PreconditionError,
)
from abcc.metrics import is_alternative_independent, is_majority_concentric, make_metric
from abcc.noise import (
    audit_d_monotonic,
    av_refutation_model,
    make_level_model,
    make_mp,
    model_from_json,
    model_to_json,
    sample_profile,
    sample_vote_masks,
    staggered_level_model,
    jump_counterexample,
)
from abcc.oracle import expected_gap
from abcc.rules import make_rule
from conftest import committee_of, random_strict_model


def definition_route_probability(p, universe, ground, vote):
    """Independent oracle: multiply the per-alternative inclusion probabilities."""
    prob = Fraction(1)
    for i in range(universe.m):
        in_ground = ground.members.contains(i)
        in_vote = vote.contains(i)
        if in_ground:
            prob *= p if in_vote else 1 - p
        else:
            prob *= 1 - p if in_vote else p
    return prob


class TestProductModel:
    def test_probability_at_ground(self, u4):
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        assert model.probability(u4.set_of(["a", "b"])) == Fraction(81, 256)

    def test_probability_one_flip_away(self, u4):
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        assert model.probability(u4.set_of(["a", "b", "c"])) == Fraction(27, 256)

    def test_deterministic_limit(self, u4):
        model = make_mp(1, u4, committee_of(u4, ["a", "b"]))
        assert model.probability(u4.set_of(["a", "b"])) == 1
        assert model.probability(u4.set_of(["a"])) == 0

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), Fraction(0), Fraction(-1)])
    def test_parameter_range(self, u4, bad):
        with pytest.raises(InvalidNoiseParamError):
            make_mp(bad, u4, committee_of(u4, ["a", "b"]))

    @pytest.mark.parametrize("m", range(1, 11))
    def test_closed_form_matches_definition_route(self, m):
        u = default_universe(m)
        ground = Committee(u.set_of(u.names[: max(1, m // 2)]), max(1, m // 2))
        model = make_mp(Fraction(2, 3), u, ground)
        rng = np.random.default_rng(m)
        for mask in rng.integers(0, 1 << m, size=min(1 << m, 32)):
            vote = AlternativeSet(int(mask), m)
            assert model.probability(vote) == definition_route_probability(
                Fraction(2, 3), u, ground, vote
            )

    def test_table_sums_to_one(self, u4):
        model = make_mp(Fraction(5, 7), u4, committee_of(u4, ["b", "d"]))
        assert sum(model.prob_table(), Fraction(0)) == 1

    def test_product_model_is_monotonic_for_set_difference(self, u4):
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        ok, witness = audit_d_monotonic(model)
        assert ok, witness


class TestLevelModel:
    def test_trivial_metric_normalization(self):
        u = default_universe(2)
        d = make_metric("trivial", 2)
        ground = committee_of(u, ["a"])
        model = make_level_model(d, ground, [Fraction(2, 5), Fraction(1, 5)], u)
        assert model.probability(u.set_of(["a"])) == Fraction(2, 5)
        assert model.probability(u.set_of(["b"])) == Fraction(1, 5)
        assert sum(model.prob_table(), Fraction(0)) == 1

    def test_models_on_different_partitions_differ(self):
        # {} and {a, b} swap levels 1 and 2 around the ground {a}: equal
        # probabilities, different distributions
        u = default_universe(2)
        ground = committee_of(u, ["a"])
        probs = [Fraction(4, 10), Fraction(3, 10), Fraction(2, 10), Fraction(1, 10)]
        models = [
            make_level_model(
                make_metric("custom", 2, table={(0, 1): near, (1, 3): far}, default=Fraction(2)),
                ground,
                probs,
                u,
            )
            for near, far in [(1, Fraction(3, 2)), (Fraction(3, 2), 1)]
        ]
        assert models[0].prob_table() != models[1].prob_table()
        assert models[0] != models[1] and hash(models[0]) != hash(models[1])

    def test_equal_probabilities_rejected(self):
        u = default_universe(2)
        d = make_metric("trivial", 2)
        with pytest.raises(NotMonotonicError):
            make_level_model(d, committee_of(u, ["a"]), [Fraction(1, 4), Fraction(1, 4)], u)

    def test_zero_tail_admitted_and_flagged(self, u4):
        d = make_metric("trivial", 4)
        ground = committee_of(u4, ["a", "b"])
        model = make_level_model(d, ground, [Fraction(1), Fraction(0)], u4)
        assert model.zero_tail
        ok, _ = audit_d_monotonic(model)
        assert ok

    def test_normalization_deficit_reported(self, u4):
        d = make_metric("trivial", 4)
        with pytest.raises(NotNormalizedError) as err:
            make_level_model(
                d, committee_of(u4, ["a", "b"]), [Fraction(1, 2), Fraction(1, 20)], u4
            )
        assert err.value.deficit == Fraction(1, 2) + 15 * Fraction(1, 20) - 1

    def test_wrong_length_rejected(self, u4):
        d = make_metric("set_difference", 4)
        with pytest.raises(PreconditionError):
            make_level_model(d, committee_of(u4, ["a", "b"]), [Fraction(1)], u4)

    def test_monotonicity_audit_on_random_models(self, rng):
        for seed in range(5):
            m = int(rng.integers(2, 6))
            u = default_universe(m)
            d = make_metric("set_difference", m)
            ground = committee_of(u, u.names[:2])
            model = random_strict_model(d, ground, rng)
            ok, witness = audit_d_monotonic(model)
            assert ok, witness

    def test_audit_catches_tampering(self, u4):
        d = make_metric("trivial", 4)
        ground = committee_of(u4, ["a", "b"])
        model = staggered_level_model(d, ground, u4)
        tampered = make_metric("set_difference", 4)
        ok, witness = audit_d_monotonic(model, tampered)
        assert not ok and witness is not None


class TestSampling:
    def test_deterministic_model_yields_copies(self, u4):
        ground = committee_of(u4, ["a", "b"])
        model = make_mp(1, u4, ground)
        profile = sample_profile(model, 5, seed=3)
        assert all(v == ground.members for v in profile)

    def test_empty_sample(self, u4):
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        assert sample_profile(model, 0, seed=1).n == 0

    def test_seed_determinism(self, u4):
        model = make_mp(Fraction(2, 3), u4, committee_of(u4, ["a", "c"]))
        assert sample_profile(model, 50, seed=11) == sample_profile(model, 50, seed=11)
        assert sample_profile(model, 50, seed=11) != sample_profile(model, 50, seed=12)

    def test_product_frequency_of_ground_votes(self):
        # exact-ground frequency should sit within 3 standard errors of (3/4)^6
        m, n = 6, 100_000
        u = default_universe(m)
        ground = Committee(u.set_of(u.names[:3]), 3)
        model = make_mp(Fraction(3, 4), u, ground)
        profile = sample_profile(model, n, seed=2024)
        hits = sum(1 for v in profile if v == ground.members)
        expect = float(Fraction(3, 4) ** 6)
        se = sqrt(expect * (1 - expect) / n)
        assert abs(hits / n - expect) <= 3 * se

    def test_wide_product_masks_match_bitwise_build(self):
        # m = 70 takes the object-dtype product; the same uniforms, drawn
        # again, give each vote one bit at a time
        m = 70
        u = default_universe(m)
        ground = Committee(u.set_of(["x0", "x63", "x69"]), 3)
        model = make_mp(Fraction(3, 4), u, ground)
        masks = sample_vote_masks(model, 40, np.random.default_rng(5))
        expected = []
        for row in np.random.default_rng(5).random((40, m)):
            keep = [0.75 if ground.mask >> i & 1 else 0.25 for i in range(m)]
            expected.append(sum(1 << i for i in range(m) if row[i] < keep[i]))
        assert masks == expected
        assert any(mask >> 62 for mask in masks)

    def test_level_table_frequencies_all_sets(self, rng):
        # per-set empirical frequencies within 4 standard errors, all 2^m sets
        m, n = 5, 100_000
        u = default_universe(m)
        d = make_metric("jaccard", m)
        ground = committee_of(u, ["a", "b"])
        model = random_strict_model(d, ground, np.random.default_rng(77))
        profile = sample_profile(model, n, seed=4096)
        counts = Counter(v.mask for v in profile)
        table = model.prob_table()
        for mask in range(1 << m):
            expect = float(table[mask])
            se = sqrt(max(expect * (1 - expect), 1e-12) / n)
            assert abs(counts.get(mask, 0) / n - expect) <= 4 * se, mask


class TestTheorem3Construction:
    def test_cc_package(self, u4):
        rule = make_rule("cc", 4, 2)
        pkg = jump_counterexample(rule)
        assert pkg.jump == (1, 1)
        assert pkg.expected_gap < 0
        # independent recomputation through the oracle route
        assert expected_gap(rule, pkg.model, pkg.ground, pkg.rival) == pkg.expected_gap
        ok, _ = audit_d_monotonic(pkg.model, pkg.metric)
        assert ok

    def test_av_package_metric_is_alternative_dependent(self):
        rule = make_rule("av", 4, 2)
        pkg = jump_counterexample(rule)
        assert pkg.jump == (1, 1)
        assert not is_alternative_independent(pkg.metric)
        assert pkg.expected_gap < 0

    @pytest.mark.parametrize("kind", ["av", "cc", "pav", "sav"])
    def test_all_catalog_rules_defeated_at_4_2(self, kind):
        rule = make_rule(kind, 4, 2)
        pkg = jump_counterexample(rule)
        assert expected_gap(rule, pkg.model, pkg.ground, pkg.rival) < 0

    def test_mc_has_no_counterexample(self):
        with pytest.raises(NoCounterexampleError):
            jump_counterexample(make_rule("mc", 4, 2))

    def test_needs_room_for_a_rival(self):
        with pytest.raises(PreconditionError):
            jump_counterexample(make_rule("av", 2, 2))

    def test_delta_within_monotonic_range(self):
        pkg = jump_counterexample(make_rule("sav", 5, 2))
        assert 0 < pkg.delta < Fraction(1, 3 * (2**5 - 1))
        assert pkg.model.level_probs[0] == Fraction(1, 3)


class TestAvRefutation:
    def _violating_metric(self):
        # random alternative-dependent tables violate concentricity readily
        from abcc.metrics import random_metric

        for seed in range(40):
            d = random_metric(4, seed=[99, seed])
            check = is_majority_concentric(d, 2)
            if not check:
                return d, check.witness
        raise AssertionError("no violation found in 40 seeds")

    def test_refutation_gap_negative(self):
        d, (ground, a, b, t) = self._violating_metric()
        model = av_refutation_model(d, ground, a, b, t)
        av = make_rule("av", 4, 2)
        rival_mask = ground.mask & ~(1 << a) | (1 << b)
        rival = Committee(AlternativeSet(rival_mask, 4), 2)
        assert expected_gap(av, model, ground, rival) < 0
        ok, _ = audit_d_monotonic(model, d)
        assert ok

    def test_tau_exceeds_uniform_probability(self):
        d, (ground, a, b, t) = self._violating_metric()
        model = av_refutation_model(d, ground, a, b, t)
        assert model.level_probs[0] > Fraction(1, 2**4)

    def test_concentric_metric_rejected(self, u4):
        d = make_metric("set_difference", 4)
        ground = committee_of(u4, ["a", "b"])
        with pytest.raises(PreconditionError):
            av_refutation_model(d, ground, 0, 2, 1)

    @pytest.mark.parametrize("a,b", [(7, 2), (0, 7), (-1, 2), (2, 3), (0, 1)])
    def test_a_member_and_an_outsider_required(self, a, b):
        # a = 7 at m = 5 used to end in DeltaSearchError
        d = make_metric("zelinka", 5)
        ground = Committee(AlternativeSet(0b11, 5), 2)
        with pytest.raises(PreconditionError):
            av_refutation_model(d, ground, a, b, 1)


class TestModelFiles:
    def test_mp_round_trip(self, u4):
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        doc = model_to_json(model)
        assert doc["type"] == "mp" and doc["p"] == "3/4" and doc["ground"] == ["a", "b"]
        again = model_from_json(doc)
        assert again.prob_table() == model.prob_table()

    def test_alternatives_for_another_m_refused(self, u4):
        doc = model_to_json(make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"])))
        assert model_from_json(doc, 4).m == model_from_json(doc).m == 4
        with pytest.raises(DomainMismatchError, match="model file has m=4; need m=5"):
            model_from_json(doc, 5)
        del doc["alternatives"]  # the labels of --m
        assert model_from_json(doc, 5).m == 5

    def test_level_round_trip(self, u4):
        d = make_metric("trivial", 4)
        ground = committee_of(u4, ["c", "d"])
        model = staggered_level_model(d, ground, u4)
        again = model_from_json(model_to_json(model))
        assert again.prob_table() == model.prob_table()

    def test_json_serializable(self, u4):
        model = staggered_level_model(make_metric("jaccard", 4), committee_of(u4, ["a", "b"]), u4)
        json.dumps(model_to_json(model))
