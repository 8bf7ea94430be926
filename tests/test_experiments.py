from fractions import Fraction

import pytest

from abcc.core import Committee, Profile, default_universe
from abcc.errors import CapExceededError, InvalidNoiseParamError, PreconditionError
from abcc.experiments import (
    accuracy_trial,
    convergence_curve,
    curve_to_csv,
    curve_to_json,
    hierarchy_report,
    hierarchy_to_csv,
    hierarchy_to_json,
    mle_committees,
    mle_equivalence_check,
)
from abcc.metrics import DistanceMetric, make_metric, random_metric
from abcc.noise import make_mp, jump_counterexample
from abcc.rules import make_rule
from conftest import committee_of, random_profile


class TestAccuracyTrial:
    def test_deterministic_model_always_recovers(self, u4):
        av = make_rule("av", 4, 2)
        model = make_mp(1, u4, committee_of(u4, ["a", "b"]))
        rates = accuracy_trial(av, model, n=3, trials=20, seed=0)
        assert rates.recovery == 1

    def test_empty_profiles_tie(self, u4):
        av = make_rule("av", 4, 2)
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        rates = accuracy_trial(av, model, n=0, trials=10, seed=0)
        assert rates.tie == 1

    def test_rates_partition_unity(self, u4):
        cc = make_rule("cc", 4, 2)
        model = make_mp(Fraction(2, 3), u4, committee_of(u4, ["a", "c"]))
        rates = accuracy_trial(cc, model, n=5, trials=40, seed=9)
        assert rates.recovery + rates.tie + rates.wrong == 1

    def test_seed_determinism(self, u4):
        av = make_rule("av", 4, 2)
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        first = accuracy_trial(av, model, n=30, trials=50, seed=5)
        second = accuracy_trial(av, model, n=30, trials=50, seed=5)
        assert first == second

    def test_av_converges_at_scale(self):
        # positive minimum gap guarantees convergence; 500 votes is far past
        # the concentration threshold for p = 4/5
        u = default_universe(8)
        av = make_rule("av", 8, 3)
        model = make_mp(Fraction(4, 5), u, Committee(u.set_of(u.names[:3]), 3))
        rates = accuracy_trial(av, model, n=500, trials=400, seed=31337)
        assert rates.recovery >= Fraction(99, 100)

    def test_trials_must_be_positive(self, u4):
        av = make_rule("av", 4, 2)
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        with pytest.raises(PreconditionError):
            accuracy_trial(av, model, n=5, trials=0, seed=1)

    def test_model_over_another_domain_refused(self):
        # sampled votes over 5 alternatives indexed past the m = 4 rule's committee table
        u5 = default_universe(5)
        model = make_mp(Fraction(3, 4), u5, committee_of(u5, ["a", "b"]))
        av = make_rule("av", 4, 2)
        with pytest.raises(PreconditionError, match="model has m=5, k=2; rule has m=4, k=2"):
            accuracy_trial(av, model, n=5, trials=2, seed=1)
        with pytest.raises(PreconditionError):
            convergence_curve(av, model, (5,), trials=2, seed=1)


class TestOracleExperimentAgreement:
    def test_accurate_configuration_recovers_at_the_bound(self, u4):
        from abcc.oracle import accuracy_classify, sample_size_bound

        av = make_rule("av", 4, 2)
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        assert accuracy_classify(av, model).status == "accurate_in_limit"
        bound = sample_size_bound(av, model, 0.05)
        rates = accuracy_trial(av, model, n=bound.n, trials=200, seed=808)
        assert rates.recovery >= Fraction(95, 100)

    def test_inaccurate_configuration_stays_below_sixty_percent(self, u4):
        from abcc.noise import staggered_level_model
        from abcc.oracle import accuracy_classify

        cc = make_rule("cc", 4, 2)
        model = staggered_level_model(
            make_metric("trivial", 4), committee_of(u4, ["a", "b"]), u4
        )
        assert accuracy_classify(cc, model).status == "not_accurate"
        rates = accuracy_trial(cc, model, n=1000, trials=200, seed=809)
        assert rates.recovery <= Fraction(60, 100)


class TestConvergenceCurve:
    def test_accurate_configuration_improves(self, u4):
        av = make_rule("av", 4, 2)
        model = make_mp(Fraction(2, 3), u4, committee_of(u4, ["a", "b"]))
        curve = convergence_curve(av, model, (2, 50, 400), trials=60, seed=7)
        assert curve.rows[-1].recovery > curve.rows[0].recovery
        assert curve.rows[-1].recovery >= Fraction(95, 100)

    def test_adversarial_model_drives_wrong_rate_up(self):
        cc = make_rule("cc", 4, 2)
        pkg = jump_counterexample(cc)
        curve = convergence_curve(cc, pkg.model, (10, 200, 1500), trials=60, seed=13)
        assert curve.rows[-1].recovery < Fraction(1, 2)
        assert curve.rows[-1].wrong > curve.rows[0].wrong
        assert curve.rows[-1].wrong >= Fraction(3, 4)

    def test_rows_follow_grid(self, u4):
        av = make_rule("av", 4, 2)
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        curve = convergence_curve(av, model, (1, 5, 10), trials=8, seed=3)
        assert [row.n for row in curve.rows] == [1, 5, 10]

    def test_bit_identical_reruns(self, u4):
        av = make_rule("av", 4, 2)
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["c", "d"]))
        config = (av, model, (5, 20), 25, 99)
        assert curve_to_csv(convergence_curve(*config)) == curve_to_csv(
            convergence_curve(*config)
        )

    def test_grid_validation(self, u4, monkeypatch):
        # every size and the trial count are checked before the first trial
        def trial(*args):
            raise AssertionError("a trial ran before the arguments were checked")

        av = make_rule("av", 4, 2)
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        monkeypatch.setattr("abcc.experiments.accuracy_trial", trial)
        with pytest.raises(PreconditionError, match="^all grid sizes must be >= 1$"):
            convergence_curve(av, model, (5, 0), trials=5, seed=1)
        with pytest.raises(PreconditionError, match="^trials must be >= 1$"):
            convergence_curve(av, model, (5,), trials=0, seed=1)

    def test_csv_shape(self, u4):
        av = make_rule("av", 4, 2)
        model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
        curve = convergence_curve(av, model, (2, 4), trials=4, seed=2)
        lines = curve_to_csv(curve).strip().splitlines()
        assert lines[0] == "n,recovery_rate,tie_rate,wrong_rate"
        assert len(lines) == 3
        doc = curve_to_json(curve)
        assert len(doc["rows"]) == 2 and doc["seed"] == 2


class TestMle:
    def test_unanimous_profile(self, u3):
        profile = Profile((u3.set_of(["a", "b"]),) * 4)
        result = mle_committees(profile, Fraction(3, 4), 3, 2)
        assert result.agree
        assert [c.labels(u3) for c in result.by_distance] == [("a", "b")]

    def test_routes_agree_on_random_profiles(self, rng):
        for _ in range(60):
            m = int(rng.integers(2, 7))
            k = int(rng.integers(1, min(3, m) + 1))
            profile = random_profile(m, int(rng.integers(1, 13)), rng)
            assert mle_committees(profile, Fraction(2, 3), m, k).agree

    def test_result_invariant_in_p(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 6))
            profile = random_profile(m, int(rng.integers(1, 10)), rng)
            results = [
                mle_committees(profile, p, m, 2 if m > 1 else 1)
                for p in (Fraction(2, 3), Fraction(3, 4), Fraction(9, 10))
            ]
            assert results[0].by_distance == results[1].by_distance == results[2].by_distance

    def test_p_range_enforced(self, u3):
        profile = Profile((u3.set_of(["a"]),))
        with pytest.raises(InvalidNoiseParamError):
            mle_committees(profile, Fraction(1, 2), 3, 2)

    def test_equivalence_check_counts(self):
        agree, total = mle_equivalence_check(Fraction(3, 4), 4, 2, profiles=25, seed=5)
        assert (agree, total) == (25, 25)


class TestHierarchy:
    def _report(self):
        rules = [make_rule(kind, 4, 2) for kind in ("av", "cc", "pav", "sav", "mc")]
        metrics = [
            make_metric("set_difference", 4),
            make_metric("trivial", 4),
            random_metric(4, seed=[21, 0]),
        ]
        return hierarchy_report(rules, metrics)

    def test_mc_row_all_robust(self):
        report = self._report()
        assert all(
            report.verdicts[("mc", name)].status == "robust"
            for name in report.metric_names
        )

    def test_cc_trivial_cell_degenerate(self):
        report = self._report()
        assert report.verdicts[("cc", "trivial")].status == "degenerate_not_robust"

    def test_nontrivial_rules_robust_on_similarity_column(self):
        report = self._report()
        for rule_name in report.rule_names:
            assert report.rule_predicates[rule_name]["is_nontrivial"]
            assert report.verdicts[(rule_name, "set_difference")].status == "robust"

    def test_predicates_and_taxonomy_attached(self):
        report = self._report()
        assert report.rule_predicates["cc"]["has_top_jump"] is False
        assert report.metric_taxonomy["set_difference"].is_similarity

    def test_csv_and_json_emission(self):
        report = self._report()
        csv = hierarchy_to_csv(report)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("rule,")
        assert len(lines) == 6
        doc = hierarchy_to_json(report)
        assert doc["matrix"]["mc"]["trivial"] == "robust"

    def test_shape_validation(self):
        with pytest.raises(PreconditionError):
            hierarchy_report([make_rule("av", 4, 2)], [make_metric("trivial", 3)])

    def test_taxonomy_refuses_before_any_verdict(self, monkeypatch):
        # a builtin's verdict runs on its overlap classes at m = 17, but its
        # taxonomy sweeps the 2^m sets: that cap must be hit first
        def no_verdict(rule, metric):
            raise AssertionError("a robustness verdict ran")

        monkeypatch.setattr("abcc.oracle.robustness_verdict", no_verdict)
        with pytest.raises(CapExceededError, match="2\\^m sets"):
            hierarchy_report([make_rule("av", 17, 2)], [make_metric("jaccard", 17)])

    def test_matrix_cap_refuses_before_any_verdict(self, monkeypatch):
        # a table metric's taxonomy needs the full 2^m x 2^m matrix, which
        # check_matrix refuses at m = 13, a limit builtins never reach
        def no_verdict(rule, metric):
            raise AssertionError("a robustness verdict ran")

        monkeypatch.setattr("abcc.oracle.robustness_verdict", no_verdict)
        table = DistanceMetric("t", 13, table={}, default=Fraction(1))
        with pytest.raises(CapExceededError, match="full distance matrix has 4\\^13 cells"):
            hierarchy_report([make_rule("av", 13, 2)], [table])

    def test_duplicate_names_refused(self):
        # the report keys its verdicts by name: a second rule of one name
        # would overwrite the first; one thiele rule, its weights spelled twice
        thiele = [make_rule("thiele", 4, 2, weights=w) for w in ([1, 1], [Fraction(2, 2), 1])]
        assert thiele[0].name == thiele[1].name == "thiele(1;1)"
        trivial = make_metric("trivial", 4)
        with pytest.raises(PreconditionError, match=r"duplicate rule name 'thiele\(1;1\)'"):
            hierarchy_report(thiele, [trivial])
        with pytest.raises(PreconditionError, match="duplicate metric name 'trivial'"):
            hierarchy_report(thiele[:1], [trivial, make_metric("jaccard", 4), trivial])
