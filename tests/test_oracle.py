from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import reference
from abcc.core import AlternativeSet, Committee, default_universe, feasible_pairs
from abcc.errors import NotAccurateError, PreconditionError, SizeMismatchError
from abcc.metrics import is_majority_concentric, make_metric, random_metric
from abcc.noise import audit_d_monotonic, make_mp, staggered_level_model
from abcc.oracle import (
    ACCURATE,
    DEGENERATE_NOT_ROBUST,
    NOT_ACCURATE,
    NOT_ROBUST,
    ROBUST,
    _ln_bounds,
    accuracy_classify,
    expected_gap,
    gap_analysis,
    robustness_verdict,
    sample_size_bound,
    uv_bijection,
    verdict_to_json,
)
from abcc.rules import make_rule, vote_score
from conftest import committee_of, random_rule, random_strict_model


def brute_force_gap(rule, model, ground, rival):
    """Independent oracle: plain sum over the whole power set."""
    total = Fraction(0)
    for mask in range(1 << rule.m):
        vote = AlternativeSet(mask, rule.m)
        total += (
            vote_score(rule, ground, vote) - vote_score(rule, rival, vote)
        ) * reference.probability(model, mask)
    return total


class TestExpectedGap:
    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(20):
            m = int(rng.integers(3, 6))
            k = int(rng.integers(2, min(3, m - 1) + 1))
            rule = random_rule(m, k, rng)
            d = random_metric(m, seed=int(rng.integers(0, 10**6)))
            u = default_universe(m)
            ground = committee_of(u, u.names[:k])
            rival = committee_of(u, u.names[1 : k + 1])
            model = random_strict_model(d, ground, rng)
            assert expected_gap(rule, model, ground, rival) == brute_force_gap(
                rule, model, ground, rival
            )

    def test_mc_gap_is_probability_difference(self, u4):
        mc = make_rule("mc", 4, 2)
        ground = committee_of(u4, ["a", "b"])
        rival = committee_of(u4, ["a", "c"])
        model = staggered_level_model(make_metric("jaccard", 4), ground, u4)
        gap = expected_gap(mc, model, ground, rival)
        assert gap == (
            reference.probability(model, ground.mask) - reference.probability(model, rival.mask)
        )
        assert gap > 0

    def test_overlap_jump_rule_closed_form(self, u3, rng):
        # rule scoring only exact singletons and the full pair:
        # gap = 2 p({a,b}) - 2 p({a,c}) + p({b}) - p({c})
        table = {xy: Fraction(0) for xy in feasible_pairs(3, 2)}
        table[(1, 1)] = Fraction(1)
        table[(2, 2)] = Fraction(2)
        rule = make_rule("custom", 3, 2, table=table)
        ground = committee_of(u3, ["a", "b"])
        rival = committee_of(u3, ["a", "c"])
        for seed in range(5):
            d = random_metric(3, seed=[5, seed])
            model = random_strict_model(d, ground, np.random.default_rng(seed))
            p = reference.prob_table(model)
            closed = (
                2 * p[u3.set_of(["a", "b"]).mask]
                - 2 * p[u3.set_of(["a", "c"]).mask]
                + p[u3.set_of(["b"]).mask]
                - p[u3.set_of(["c"]).mask]
            )
            assert expected_gap(rule, model, ground, rival) == closed

    def test_ground_mismatch_rejected(self, u4):
        av = make_rule("av", 4, 2)
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        with pytest.raises(PreconditionError):
            expected_gap(av, model, committee_of(u4, ["a", "c"]), committee_of(u4, ["a", "b"]))


class TestSpecial6Gaps:
    """The m=4, k=2 rule scoring only size-2 votes, against any
    alternative-independent metric: class-probability closed forms."""

    def _class_prob(self, model, u4, x, y):
        # p(x, y): probability of any vote with |ground ∩ S| = x, |S| = y
        ground = model.ground
        for mask in range(16):
            if mask.bit_count() == y and (mask & ground.mask).bit_count() == x:
                return reference.probability(model, mask)
        raise AssertionError("unrealized class")

    @pytest.mark.parametrize("seed", range(8))
    def test_closed_forms(self, u4, seed):
        rule = make_rule("special6_f", 4, 2)
        d = random_metric(4, seed=[6, seed], family="signature")
        ground = committee_of(u4, ["a", "b"])
        model = random_strict_model(d, ground, np.random.default_rng(seed))
        gap_ac = expected_gap(rule, model, ground, committee_of(u4, ["a", "c"]))
        gap_cd = expected_gap(rule, model, ground, committee_of(u4, ["c", "d"]))
        p22 = self._class_prob(model, u4, 2, 2)
        p02 = self._class_prob(model, u4, 0, 2)
        assert gap_ac == p22 - p02
        assert gap_cd == 2 * p22 - 2 * p02
        assert gap_ac > 0 and gap_cd > 0


class TestAccuracyClassify:
    def test_av_under_product_noise(self, u4):
        av = make_rule("av", 4, 2)
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        report = accuracy_classify(av, model)
        assert report.status == ACCURATE
        assert all(gap > 0 for gap in report.gaps.values())
        # the gap for a rival sharing one member is exactly 2p - 1
        rival = committee_of(u4, ["a", "c"])
        assert report.gaps[rival] == Fraction(1, 2)

    def test_cc_zero_gap_fails(self, u4):
        cc = make_rule("cc", 4, 2)
        ground = committee_of(u4, ["a", "b"])
        model = staggered_level_model(make_metric("trivial", 4), ground, u4)
        report = accuracy_classify(cc, model)
        assert report.status == NOT_ACCURATE
        overlap_rival = committee_of(u4, ["a", "c"])
        assert report.gaps[overlap_rival] == 0
        assert report.rival_status[overlap_rival] == "zero_mean"

    def test_mc_accurate_for_any_valid_model(self, u4, rng):
        mc = make_rule("mc", 4, 2)
        ground = committee_of(u4, ["b", "d"])
        for seed in range(5):
            d = random_metric(4, seed=[8, seed])
            model = random_strict_model(d, ground, rng)
            assert accuracy_classify(mc, model).status == ACCURATE

    def test_identically_zero_gap_reported_as_tie(self, u4):
        # constant rule: every committee scores the same on every vote
        table = {xy: Fraction(1) for xy in feasible_pairs(4, 2)}
        flat = make_rule("custom", 4, 2, table=table)
        ground = committee_of(u4, ["a", "b"])
        model = staggered_level_model(make_metric("jaccard", 4), ground, u4)
        report = accuracy_classify(flat, model)
        assert report.status == NOT_ACCURATE
        assert set(report.rival_status.values()) == {"zero_tie"}

    @pytest.mark.parametrize("m, ground", [(5, "ab"), (4, "abc")])
    def test_model_over_another_domain_refused(self, m, ground):
        # the m = 5 model was classified accurate, with a sample size bound of 329
        u = default_universe(m)
        model = make_mp(Fraction(3, 4), u, Committee(u.set_of(ground), len(ground)))
        av = make_rule("av", 4, 2)
        for check in (accuracy_classify, lambda rule, model: sample_size_bound(rule, model, 0.1)):
            with pytest.raises(PreconditionError, match=f"model has m={m}, k={len(ground)}"):
                check(av, model)
        u4 = default_universe(4)
        with pytest.raises(PreconditionError):
            expected_gap(av, model, model.ground, Committee(u4.set_of("ab"), 2))


class TestUVBijection:
    def test_identity_when_equal(self, u4):
        committee = committee_of(u4, ["a", "b"])
        mu = uv_bijection(committee, committee)
        assert mu.point_map == (0, 1, 2, 3)

    def test_single_swap(self, u4):
        mu = uv_bijection(committee_of(u4, ["a", "b"]), committee_of(u4, ["a", "c"]))
        assert mu.map_mask(u4.set_of(["b", "d"]).mask) == u4.set_of(["c", "d"]).mask
        assert mu.map_mask(u4.set_of(["c"]).mask) == u4.set_of(["b"]).mask

    def test_size_mismatch(self, u4):
        with pytest.raises(SizeMismatchError):
            uv_bijection(committee_of(u4, ["a", "b"]), committee_of(u4, ["a", "b", "c"]))

    def test_lemma_identities_exhaustive(self, rng):
        for _ in range(10):
            m = int(rng.integers(3, 7))
            k = int(rng.integers(1, m))
            u = default_universe(m)
            ground_indices = rng.permutation(m)[:k]
            ground = Committee(AlternativeSet(sum(1 << int(i) for i in ground_indices), m), k)
            rival_indices = rng.permutation(m)[:k]
            rival = Committee(AlternativeSet(sum(1 << int(i) for i in rival_indices), m), k)
            mu = uv_bijection(ground, rival)
            for s in range(1 << m):
                image = mu.map_mask(s)
                assert s.bit_count() == image.bit_count()
                assert (ground.mask & s).bit_count() == (rival.mask & image).bit_count()
                assert (ground.mask & image).bit_count() == (rival.mask & s).bit_count()


class TestGapAnalysis:
    def test_mc_prefix_structure(self, u4):
        mc = make_rule("mc", 4, 2)
        d = make_metric("set_difference", 4)
        ground = committee_of(u4, ["a", "b"])
        rival = committee_of(u4, ["b", "c"])
        analysis = gap_analysis(mc, d, ground, rival)
        levels = analysis.levels
        rival_level = levels.level_of[rival.mask]
        for j, prefix in enumerate(analysis.prefix):
            assert prefix == (1 if j < rival_level else 0)

    def test_cc_on_trivial_metric_cancels(self, u4):
        cc = make_rule("cc", 4, 2)
        d = make_metric("trivial", 4)
        analysis = gap_analysis(cc, d, committee_of(u4, ["a", "b"]), committee_of(u4, ["a", "c"]))
        assert analysis.coefficients[0] == 0
        assert analysis.prefix == (0, 0)

    def test_av_on_concentric_metric_has_positive_start(self, u4):
        av = make_rule("av", 4, 2)
        d = make_metric("jaccard", 4)
        analysis = gap_analysis(av, d, committee_of(u4, ["a", "b"]), committee_of(u4, ["c", "d"]))
        assert analysis.prefix[0] > 0
        assert all(e >= 0 for e in analysis.prefix)

    def test_full_sum_vanishes_via_bijection(self, rng):
        # the top prefix aggregates the whole power set, which the
        # ground/rival swap pairs off exactly
        for _ in range(10):
            m = int(rng.integers(3, 6))
            k = int(rng.integers(1, m))
            rule = random_rule(m, k, rng)
            d = random_metric(m, seed=int(rng.integers(0, 10**6)))
            u = default_universe(m)
            ground = committee_of(u, u.names[:k])
            rival = committee_of(u, u.names[m - k :])
            if ground == rival:
                continue
            analysis = gap_analysis(rule, d, ground, rival)
            assert analysis.prefix[-1] == 0

    def test_antisymmetry_of_scores_under_bijection(self, rng, u4):
        rule = random_rule(4, 2, rng)
        ground = committee_of(u4, ["a", "b"])
        rival = committee_of(u4, ["c", "b"])
        mu = uv_bijection(ground, rival)
        for mask in range(16):
            vote = AlternativeSet(mask, 4)
            image = AlternativeSet(mu.map_mask(mask), 4)
            assert vote_score(rule, ground, image) == vote_score(rule, rival, vote)
            assert vote_score(rule, rival, image) == vote_score(rule, ground, vote)

    def test_two_route_gap_evaluation(self, rng, u4):
        rule = random_rule(4, 2, rng)
        d = random_metric(4, seed=1234)
        ground = committee_of(u4, ["a", "d"])
        rival = committee_of(u4, ["b", "c"])
        analysis = gap_analysis(rule, d, ground, rival)
        model = random_strict_model(d, ground, rng)
        direct = analysis.gap_for_level_probs(model.level_probs)
        by_parts = analysis.gap_by_parts(model.level_probs)
        assert direct == by_parts == expected_gap(rule, model, ground, rival)


class TestRobustnessVerdict:
    def test_mc_robust_on_everything_small(self, rng):
        for m, k in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]:
            mc = make_rule("mc", m, k)
            for kind in ("set_difference", "trivial"):
                assert robustness_verdict(mc, make_metric(kind, m)).status == ROBUST
            d = random_metric(m, seed=[m, k])
            assert robustness_verdict(mc, d).status == ROBUST

    def test_cc_trivial_is_degenerate(self, u4):
        cc = make_rule("cc", 4, 2)
        verdict = robustness_verdict(cc, make_metric("trivial", 4))
        assert verdict.status == DEGENERATE_NOT_ROBUST
        witness = verdict.witness
        assert not witness.identically_zero
        # the witness model is strict and gives the pair a gap of exactly zero
        ok, _ = audit_d_monotonic(witness.model)
        assert ok
        assert expected_gap(cc, witness.model, witness.ground, witness.rival) == 0

    def test_av_robust_on_builtins(self):
        for m in (4, 5):
            av = make_rule("av", m, 2)
            for kind in ("set_difference", "jaccard", "zelinka", "bunke_shearer"):
                assert robustness_verdict(av, make_metric(kind, m)).status == ROBUST

    def test_av_verdict_equals_concentricity(self):
        av = make_rule("av", 4, 2)
        seen = set()
        for seed in range(25):
            family = "table" if seed % 2 == 0 else "signature"
            d = random_metric(4, seed=[11, seed], family=family, monotone=(seed % 4 == 3))
            concentric = bool(is_majority_concentric(d, 2))
            verdict = robustness_verdict(av, d)
            assert concentric == (verdict.status == ROBUST)
            seen.add(concentric)
        assert seen == {True, False}  # both branches exercised

    def test_not_robust_witness_is_verified(self):
        av = make_rule("av", 4, 2)
        for seed in range(20):
            d = random_metric(4, seed=[12, seed])
            verdict = robustness_verdict(av, d)
            if verdict.status != NOT_ROBUST:
                continue
            witness = verdict.witness
            gap = expected_gap(av, witness.model, witness.ground, witness.rival)
            assert gap == witness.gap < 0
            ok, _ = audit_d_monotonic(witness.model, d)
            assert ok
            return
        raise AssertionError("no not_robust verdict in 20 seeds")

    def test_top_jump_rules_robust_on_natural_metrics(self):
        for kind in ("av", "pav", "sav", "mc"):
            rule = make_rule(kind, 4, 2)
            for seed in range(5):
                d = random_metric(4, seed=[13, seed], family="signature", monotone=True)
                assert robustness_verdict(rule, d).status == ROBUST

    def test_flat_top_rule_fails_on_trivial_metric(self):
        # non-trivial rule without the top jump: f capped below the top
        table = {
            (x, y): Fraction(min(x, 1)) + (Fraction(1, 2) if y == 1 and x == 1 else 0)
            for x, y in feasible_pairs(4, 2)
        }
        rule = make_rule("custom", 4, 2, table=table)
        verdict = robustness_verdict(rule, make_metric("trivial", 4))
        assert verdict.status in (NOT_ROBUST, DEGENERATE_NOT_ROBUST)

    def test_nontrivial_rules_robust_on_similarity_metrics(self):
        for kind in ("av", "cc", "pav", "sav", "mc"):
            rule = make_rule(kind, 5, 2)
            for metric_kind in ("set_difference", "jaccard", "zelinka", "bunke_shearer"):
                verdict = robustness_verdict(rule, make_metric(metric_kind, 5))
                assert verdict.status == ROBUST, (kind, metric_kind)

    def test_special6_robust_on_alternative_independent(self):
        rule = make_rule("special6_f", 4, 2)
        for seed in range(10):
            d = random_metric(4, seed=[14, seed], family="signature")
            assert robustness_verdict(rule, d).status == ROBUST

    def test_verdict_serializes(self, u4):
        av = make_rule("av", 4, 2)
        d = random_metric(4, seed=[15, 0])
        verdict = robustness_verdict(av, d)
        doc = verdict_to_json(verdict, u4)
        assert doc["status"] == verdict.status
        assert len(doc["per_pair_summary"]) == 30
        import json

        json.dumps(doc)


class TestSampleSizeBound:
    def test_av_gap_range_is_twice_k(self):
        for m, k in [(4, 2), (6, 3), (5, 2)]:
            u = default_universe(m)
            av = make_rule("av", m, k)
            model = make_mp(Fraction(3, 4), u, Committee(u.set_of(u.names[:k]), k))
            bound = sample_size_bound(av, model, 0.05)
            assert bound.b_prime - bound.a_prime == 2 * k

    def test_monotone_in_epsilon(self, u4):
        av = make_rule("av", 4, 2)
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        sizes = [sample_size_bound(av, model, eps).n for eps in (0.01, 0.05, 0.2, 0.9)]
        assert sizes == sorted(sizes, reverse=True)

    def test_rejects_inaccurate_configuration(self, u4):
        cc = make_rule("cc", 4, 2)
        model = staggered_level_model(make_metric("trivial", 4), committee_of(u4, ["a", "b"]), u4)
        with pytest.raises(NotAccurateError):
            sample_size_bound(cc, model, 0.05)

    def test_known_value_for_av(self, u4):
        # mu_min = 2p - 1 = 1/2, range = 4, so n = ceil(32 ln 640) = 207
        av = make_rule("av", 4, 2)
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        bound = sample_size_bound(av, model, 0.05)
        assert bound.mu_min == Fraction(1, 2)
        assert bound.n == 207

    def test_exact_n_against_a_decimal_logarithm(self):
        checked = 0
        for m, k in ((4, 2), (5, 2), (6, 3), (7, 1)):
            rules = [make_rule(kind, m, k) for kind in ("av", "pav", "sav", "cc")]
            for rule in [*rules, make_rule("p_geometric", m, k, p=Fraction(1, 2))]:
                ground = Committee(AlternativeSet((1 << k) - 1, m), k)
                for p in (Fraction(3, 4), Fraction(2, 3), Fraction(9, 10)):
                    model = make_mp(p, default_universe(m), ground)
                    for eps in (0.05, Fraction(1, 3), Fraction(1, 100), 0.9):
                        try:
                            bound = sample_size_bound(rule, model, eps)
                        except NotAccurateError:
                            continue
                        coefficient = (bound.b_prime - bound.a_prime) ** 2 / (2 * bound.mu_min**2)
                        assert bound.n == reference.hoeffding_n(coefficient, m, k, eps)
                        checked += 1
        assert checked >= 100

    def test_logarithm_bounds(self):
        def decimal(value):
            return Decimal(value.numerator) / value.denominator

        cases = (Fraction(3, 2), Fraction(2), Fraction(2 * 40**3) / Fraction(0.05), Fraction(10**30 + 1, 7))
        for x in cases:
            widths = []
            for terms in (1, 4, 32):
                lo, hi = _ln_bounds(x, terms)
                with localcontext(prec=60):
                    assert decimal(lo) < decimal(x).ln() < decimal(hi)
                widths.append(hi - lo)
            assert widths == sorted(widths, reverse=True) and widths[-1] < Fraction(1, 10**25)

    @pytest.mark.parametrize("eps", [0, 1, Fraction(3, 2), -0.5, float("nan"), "x"])
    def test_rejects_eps_outside_the_open_unit_interval(self, eps, u4):
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        with pytest.raises(PreconditionError, match="eps must be"):
            sample_size_bound(make_rule("av", 4, 2), model, eps)

    def test_rejects_a_universe_without_rivals(self):
        # at m = k the only committee is the ground: there is no worst rival
        u = default_universe(3)
        model = make_mp(Fraction(3, 4), u, Committee(u.set_of(u.names), 3))
        with pytest.raises(PreconditionError, match="need m > k"):
            sample_size_bound(make_rule("av", 3, 3), model, 0.05)
