import json
from fractions import Fraction

import pytest

from abcc.core import Committee, Profile, default_universe, feasible_pairs
from abcc.errors import DomainMismatchError, InvalidRuleError, ProfileParseError
from abcc.rules import (
    has_top_jump,
    is_nontrivial,
    load_rule_file,
    make_rule,
    profile_score,
    rule_from_json,
    rule_to_json,
    vote_score,
    winners,
)
from conftest import committee_of, random_profile, random_rule

CATALOG = ["av", "cc", "pav", "sav", "mc", "sainte_lague"]


class TestCatalog:
    def test_av_is_overlap(self):
        rule = make_rule("av", 5, 3)
        assert rule.table[(2, 3)] == 2

    def test_pav_harmonic(self):
        rule = make_rule("pav", 4, 3)
        assert rule.table[(3, 3)] == Fraction(11, 6)

    def test_mc_indicator(self):
        rule = make_rule("mc", 5, 3)
        assert rule.table[(3, 3)] == 1
        assert rule.table[(2, 3)] == 0
        assert all(v == 0 for xy, v in rule.table.items() if xy != (3, 3))

    def test_sav_normalized(self):
        rule = make_rule("sav", 5, 2)
        assert rule.table[(1, 4)] == Fraction(1, 4)
        assert rule.table[(0, 0)] == 0

    def test_cc_capped(self):
        rule = make_rule("cc", 4, 2)
        assert rule.table[(2, 2)] == 1
        assert rule.table[(1, 3)] == 1
        assert rule.table[(0, 2)] == 0

    def test_p_geometric_weights(self):
        rule = make_rule("p_geometric", 4, 2, p=Fraction(1, 2))
        # w_1 = 1/2, w_2 = 1/4
        assert rule.table[(1, 2)] == Fraction(1, 2)
        assert rule.table[(2, 2)] == Fraction(3, 4)

    def test_sainte_lague_weights(self):
        rule = make_rule("sainte_lague", 4, 2)
        assert rule.table[(2, 2)] == 1 + Fraction(1, 3)

    def test_special6_f(self):
        rule = make_rule("special6_f", 4, 2)
        assert rule.table[(1, 2)] == 1 and rule.table[(2, 2)] == 2
        assert rule.table[(1, 1)] == 0 and rule.table[(2, 3)] == 0

    def test_special6_fprime_doubles_middle_sizes(self):
        rule = make_rule("special6_fprime", 4, 2)
        assert rule.table[(2, 2)] == 4 and rule.table[(1, 2)] == 2
        assert rule.table[(1, 1)] == 1 and rule.table[(2, 3)] == 2

    def test_special6_requires_4_2(self):
        with pytest.raises(InvalidRuleError):
            make_rule("special6_f", 5, 2)
        with pytest.raises(InvalidRuleError):
            make_rule("special6_fprime", 4, 3)

    def test_thiele_rejects_negative_weights(self):
        with pytest.raises(InvalidRuleError):
            make_rule("thiele", 4, 2, weights=[1, -1])

    def test_unknown_kind(self):
        with pytest.raises(InvalidRuleError):
            make_rule("borda", 4, 2)

    def test_custom_rejects_non_monotone(self):
        table = {xy: Fraction(0) for xy in feasible_pairs(3, 2)}
        table[(1, 2)] = Fraction(1)  # then (2,2)=0 breaks monotonicity
        with pytest.raises(InvalidRuleError):
            make_rule("custom", 3, 2, table=table)

    def test_custom_rejects_negative_and_partial(self):
        table = {xy: Fraction(-1) for xy in feasible_pairs(3, 2)}
        with pytest.raises(InvalidRuleError):
            make_rule("custom", 3, 2, table=table)
        with pytest.raises(InvalidRuleError):
            make_rule("custom", 3, 2, table={(0, 0): Fraction(0)})

    def test_custom_table_error_names_counts_and_first_pairs(self):
        table = {xy: Fraction(0) for xy in feasible_pairs(3, 2)}
        del table[(1, 2)], table[(0, 1)]
        table[(3, 3)] = table[(0, 3)] = Fraction(0)
        with pytest.raises(InvalidRuleError, match=(
            r"total on the 6 feasible pairs; 2 missing \(first: \(0, 1\)\), "
            r"2 extra \(first: \(0, 3\)\)"
        )):
            make_rule("custom", 3, 2, table=table)
        # the domain of a huge m is never built: the error comes at once and stays short
        with pytest.raises(InvalidRuleError, match=r"^.{0,200}$"):
            make_rule("custom", 10**12, 1, table={(0, 0): Fraction(0)})

    @pytest.mark.parametrize("kind", CATALOG)
    @pytest.mark.parametrize("m,k", [(3, 2), (4, 2), (5, 3)])
    def test_monotone_in_overlap(self, kind, m, k):
        rule = make_rule(kind, m, k)
        for (x, y), value in rule.table.items():
            if (x + 1, y) in rule.table:
                assert rule.table[(x + 1, y)] >= value


class TestScoring:
    def test_av_vote_score(self, u4):
        rule = make_rule("av", 4, 3)
        committee = committee_of(u4, ["a", "b", "c"])
        assert vote_score(rule, committee, u4.set_of(["a", "b", "d"])) == 2

    def test_cc_vote_score(self, u4):
        rule = make_rule("cc", 4, 2)
        committee = committee_of(u4, ["a", "b"])
        assert vote_score(rule, committee, u4.set_of(["a", "b", "c"])) == 1

    def test_special6_zero_off_size_two(self, u4):
        rule = make_rule("special6_f", 4, 2)
        committee = committee_of(u4, ["a", "b"])
        assert vote_score(rule, committee, u4.set_of(["a", "b", "c"])) == 0

    def test_domain_mismatch(self, u4):
        rule = make_rule("av", 4, 2)
        with pytest.raises(DomainMismatchError):
            vote_score(rule, committee_of(u4, ["a", "b", "c"]), u4.set_of(["a"]))

    def test_profile_totals(self, u3):
        rule = make_rule("av", 3, 2)
        committee = committee_of(u3, ["a", "b"])
        profile = Profile((u3.set_of(["a"]), u3.set_of(["b"]), u3.set_of(["a", "b"])))
        assert profile_score(rule, committee, profile) == (committee, 4)

    def test_mc_counts_exact_appearances(self, u3):
        rule = make_rule("mc", 3, 2)
        committee = committee_of(u3, ["a", "b"])
        profile = Profile((u3.set_of(["a", "b"]),) * 2 + (u3.set_of(["a"]),))
        assert profile_score(rule, committee, profile).total == 2

    def test_empty_profile_scores_zero(self, u3):
        rule = make_rule("pav", 3, 2)
        committee = committee_of(u3, ["a", "b"])
        assert profile_score(rule, committee, Profile(())).total == 0

    def test_total_equals_vote_sum_on_random_profiles(self, rng):
        for _ in range(25):
            m = int(rng.integers(2, 6))
            k = int(rng.integers(1, m + 1))
            rule = random_rule(m, k, rng)
            profile = random_profile(m, int(rng.integers(0, 10)), rng)
            u = default_universe(m)
            committee = Committee(u.set_of(u.names[:k]), k)
            breakdown = profile_score(rule, committee, profile)
            assert breakdown.total == sum(
                (vote_score(rule, committee, v) for v in profile), Fraction(0)
            )

    def test_av_decomposes_into_member_appearances(self, rng):
        for _ in range(25):
            m = int(rng.integers(2, 7))
            k = int(rng.integers(1, m + 1))
            rule = make_rule("av", m, k)
            profile = random_profile(m, int(rng.integers(0, 12)), rng)
            u = default_universe(m)
            committee = Committee(u.set_of(u.names[:k]), k)
            appearances = sum(
                sum(1 for v in profile if v.mask >> i & 1) for i in committee.members
            )
            assert profile_score(rule, committee, profile).total == appearances


class TestWinners:
    def test_unanimous_profile_unique_winner(self, u3):
        rule = make_rule("av", 3, 2)
        profile = Profile((u3.set_of(["a", "b"]),) * 5)
        assert [c.labels(u3) for c in winners(rule, profile)] == [("a", "b")]

    def test_empty_profile_all_tie(self, u4):
        rule = make_rule("pav", 4, 2)
        assert len(winners(rule, Profile(()))) == 6

    def test_symmetric_profile_ties(self):
        u = default_universe(2)
        rule = make_rule("cc", 2, 1)
        profile = Profile((u.set_of(["a"]), u.set_of(["b"])))
        assert [c.labels(u) for c in winners(rule, profile)] == [("a",), ("b",)]

    def test_winners_share_exact_total(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 6))
            k = int(rng.integers(1, m))
            rule = random_rule(m, k, rng)
            profile = random_profile(m, int(rng.integers(1, 12)), rng)
            result = winners(rule, profile)
            assert result
            totals = {profile_score(rule, c, profile).total for c in result}
            assert len(totals) == 1


class TestPredicates:
    def test_av_and_mc_nontrivial(self):
        assert is_nontrivial(make_rule("av", 4, 2))
        assert is_nontrivial(make_rule("mc", 4, 2))

    def test_constant_rule_trivial_with_witness(self):
        table = {xy: Fraction(0) for xy in feasible_pairs(3, 2)}
        rule = make_rule("custom", 3, 2, table=table)
        result = is_nontrivial(rule)
        assert not result
        assert result.witness is not None

    def test_top_jump_catalog(self):
        assert has_top_jump(make_rule("av", 4, 2))
        assert has_top_jump(make_rule("pav", 4, 2))
        assert has_top_jump(make_rule("sav", 4, 2))
        assert has_top_jump(make_rule("mc", 4, 2))
        assert not has_top_jump(make_rule("cc", 4, 2))

    def test_cc_k1_has_jump(self):
        # with a single seat the top cell is the only positive one
        assert has_top_jump(make_rule("cc", 3, 1))

    def test_vacuous_when_m_equals_k(self):
        rule = make_rule("av", 3, 3)
        assert has_top_jump(rule) and rule.m == rule.k


class TestRuleFiles:
    def test_round_trip(self, tmp_path):
        rule = make_rule("pav", 4, 2)
        doc = rule_to_json(rule)
        again = rule_from_json(doc)
        assert again.table == rule.table

    def test_load_file(self, tmp_path):
        rule = make_rule("sav", 3, 2)
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(rule_to_json(rule)))
        assert load_rule_file(path).table == rule.table

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "rule.json"
        path.write_text("{not json")
        with pytest.raises(ProfileParseError):
            load_rule_file(path)
        path.write_text(json.dumps({"m": 3, "k": 2, "table": []}))
        with pytest.raises((ProfileParseError, InvalidRuleError)):
            load_rule_file(path)
