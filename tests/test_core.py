import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from abcc import core
from abcc.core import (
    AlternativeSet,
    Committee,
    Profile,
    Universe,
    check_sets,
    committee_masks,
    default_universe,
    feasible_pairs,
    format_vote_masks,
    frac_str,
    parse_frac,
    parse_profile,
)
from abcc.errors import CapExceededError, InvalidCommitteeSizeError, ProfileParseError


class TestEnumerateSubsets:
    """The 2^m subsets are the masks 0 .. 2^m - 1: bit i is the i-th label,
    and a sweep over them is capped by `check_sets`."""

    def test_empty_universe(self):
        u = Universe(())
        assert u.m == 0 and u.set_of([]) == AlternativeSet(0, 0)
        assert AlternativeSet(0, 0).labels(u) == ()

    def test_canonical_order_m2(self):
        u = default_universe(2)
        labels = [AlternativeSet(mask, 2).labels(u) for mask in range(4)]
        assert labels == [(), ("a",), ("b",), ("a", "b")]

    def test_cardinality_m16(self):
        from abcc.metrics import level_structure, make_metric

        check_sets(16)  # the cap admits m = 16
        levels = level_structure(make_metric("trivial", 16), Committee(AlternativeSet(0b1, 16), 1))
        assert len(levels.level_of) == 65536

    def test_cap(self):
        with pytest.raises(CapExceededError):
            check_sets(17)

    @given(st.integers(min_value=0, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_bijection_onto_power_set(self, m):
        u = default_universe(m)
        labels = [AlternativeSet(mask, m).labels(u) for mask in range(1 << m)]
        assert len(set(labels)) == 1 << m
        assert [u.set_of(names).mask for names in labels] == list(range(1 << m))


class TestEnumerateCommittees:
    """`committee_masks` lists the size-k committees in ascending mask order."""

    def test_all_two_subsets(self, u3):
        labels = [AlternativeSet(mask, 3).labels(u3) for mask in committee_masks(3, 2)]
        assert labels == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_single_committee_when_k_equals_m(self, u4):
        assert committee_masks(4, 4) == [0b1111]
        assert AlternativeSet(0b1111, 4).labels(u4) == ("a", "b", "c", "d")

    def test_count_five_choose_two(self):
        assert len(committee_masks(5, 2)) == 10

    def test_bad_k(self):
        with pytest.raises(InvalidCommitteeSizeError):
            committee_masks(3, 0)
        with pytest.raises(InvalidCommitteeSizeError):
            committee_masks(3, 4)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            committee_masks(20, 10)  # C(20,10) = 184,756


class TestFeasiblePairs:
    def test_domain_4_2(self):
        # the displayed m=4, k=2 domain
        expected = {(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2), (1, 3), (2, 3), (2, 4)}
        assert feasible_pairs(4, 2) == expected

    def test_m_equals_k_forces_full_overlap_at_top(self):
        for m in (2, 3, 4):
            dom = feasible_pairs(m, m)
            assert (m, m) in dom
            assert all(x == m for x, y in dom if y == m)

    def test_domain_3_1_by_direct_evaluation(self):
        # independently re-evaluate the set-builder definition
        expected = set()
        for y in range(4):
            for x in range(max(1 + y - 3, 0), min(y, 1) + 1):
                expected.add((x, y))
        assert expected == {(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (1, 3)}
        assert feasible_pairs(3, 1) == expected

    def test_contains_corners(self):
        dom = feasible_pairs(5, 3)
        assert (3, 3) in dom and (0, 0) in dom

    @pytest.mark.parametrize("m,k", [(m, k) for m in range(1, 7) for k in range(1, m + 1)])
    def test_realizability_both_directions(self, m, k):
        # every (|U∩S|, |S|) lands in the domain, and every domain member is hit
        dom = feasible_pairs(m, k)
        seen = set()
        umask = (1 << k) - 1
        for s in range(1 << m):
            pair = ((umask & s).bit_count(), s.bit_count())
            assert pair in dom
            seen.add(pair)
        # overlap count only depends on |U| by symmetry, so one U suffices
        assert seen == dom


class TestSets:
    def test_set_operations(self, u4):
        x = u4.set_of(["a", "b"])
        y = u4.set_of(["a", "c"])
        assert x.labels(u4) == ("a", "b") and y.labels(u4) == ("a", "c")
        assert len(x) == 2 and list(x) == [0, 1]

    def test_committee_size_enforced(self, u4):
        with pytest.raises(InvalidCommitteeSizeError):
            Committee(u4.set_of(["a", "b"]), 3)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Universe(("a", "a"))

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            AlternativeSet(8, 3)

    def test_value_semantics(self):
        a, b = AlternativeSet(1, 3), AlternativeSet(3, 3)
        c = Committee(b, 2)
        u = Universe(("a", "b", "c"))
        p = Profile((a, b, a))
        assert repr(a) == "AlternativeSet(mask=1, m=3)"
        assert repr(c) == "Committee(members=AlternativeSet(mask=3, m=3), k=2)"
        assert repr(u) == "Universe(names=('a', 'b', 'c'))"
        assert repr(Profile((a,))) == "Profile(votes=(AlternativeSet(mask=1, m=3),))"
        # equal by fields within a class only, hashed as the field tuple
        copies = [AlternativeSet(1, 3), Committee(AlternativeSet(3, 3), 2),
                  Universe(("a", "b", "c")), Profile((a, b, AlternativeSet(1, 3)))]
        for value, same in zip([a, c, u, p], copies):
            assert value == same and hash(value) == hash(same) and value is not same
            assert copy.copy(value) == copy.deepcopy(value) == pickle.loads(pickle.dumps(value))
        assert hash(AlternativeSet(3, 4)) == hash((3, 4))
        assert hash(c) == hash((b, 2))
        assert AlternativeSet(3, 4) != (3, 4)
        assert AlternativeSet(3, 4) != AlternativeSet(3, 5)
        assert c != b and b != c
        assert u != ("a", "b", "c") and p != (a, b, a)
        assert Universe(()) != Universe(("a",))
        assert len({a, b, AlternativeSet(1, 3), AlternativeSet(1, 4)}) == 3
        # sets order by (mask, m), committees by (members, k)
        sets = [AlternativeSet(3, 3), AlternativeSet(1, 4), AlternativeSet(1, 3)]
        assert sorted(sets) == [AlternativeSet(1, 3), AlternativeSet(1, 4), AlternativeSet(3, 3)]
        assert a < b and a <= b and b > a and b >= a and a <= AlternativeSet(1, 3)
        committees = [Committee(AlternativeSet(mask, 4), 2) for mask in (0b1100, 0b0101, 0b0011)]
        assert [x.mask for x in sorted(committees)] == [0b0011, 0b0101, 0b1100]
        assert Committee(AlternativeSet(3, 3), 2) < Committee(AlternativeSet(3, 4), 2)
        for left, right in [(a, c), (c, a), (a, (1, 3)), (u, u), (p, p)]:
            with pytest.raises(TypeError):
                left < right
        # immutable
        for value, field in [(a, "mask"), (c, "k"), (u, "names"), (p, "votes")]:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
            with pytest.raises(AttributeError):
                delattr(value, field)
            with pytest.raises(AttributeError):
                value.extra = 1
        # validation: each error type and message
        cases = [
            (lambda: AlternativeSet(8, 3), ValueError, "mask 0x8 has bits outside 0..2"),
            (lambda: AlternativeSet(-1, 3), ValueError, "mask -0x1 has bits outside 0..2"),
            (lambda: Committee(b, 0), InvalidCommitteeSizeError, "k must be positive, got 0"),
            (lambda: Committee(b, 1), InvalidCommitteeSizeError,
             "committee has 2 members, expected k=1"),
            (lambda: Universe(("a", 1)), ValueError, "alternative labels must be strings"),
            (lambda: Universe(("a", "a")), ValueError,
             "alternative labels must be pairwise distinct"),
            (lambda: Profile((a, AlternativeSet(1, 4))), ValueError,
             "all votes must live in the same universe"),
        ]
        for build, error, message in cases:
            with pytest.raises(error) as caught:
                build()
            assert type(caught.value) is error and str(caught.value) == message
        assert Universe(()).m == 0 and len(Profile(())) == 0


class TestLayerValues:
    """The value classes of the layers above core behave as the core ones:
    a dataclass repr, equality and hashing on the fields, copies that
    compare equal, and no assignment."""

    G = Committee(AlternativeSet(1, 2), 1)
    G_TEXT = "Committee(members=AlternativeSet(mask=1, m=2), k=1)"

    def values(self):
        from abcc.metrics import level_structure, make_metric, random_metric
        from abcc.noise import make_mp, staggered_level_model
        from abcc.oracle import robustness_verdict
        from abcc.rules import make_rule

        u = default_universe(2)
        mp = make_mp(Fraction(3, 4), u, self.G)
        return [
            level_structure(make_metric("trivial", 2), self.G),
            level_structure(random_metric(2, 0), self.G),
            mp,
            staggered_level_model(random_metric(2, 0), self.G, u),
            robustness_verdict(make_rule("av", 3, 1), make_metric("trivial", 3)),
        ]

    def test_repr(self):
        from abcc.metrics import LevelStructure
        from abcc.oracle import RobustnessVerdict

        g = self.G_TEXT
        trivial, table, mp, level, verdict = self.values()
        assert repr(trivial) == (
            f"LevelStructure(ground={g}, values=(Fraction(0, 1), Fraction(1, 1)), "
            "sizes=(1, 3), cells=((1, 1), (0, 1)))"
        )
        # without `sets`, one level per set
        assert repr(table) == (
            f"LevelStructure(ground={g}, values=(Fraction(0, 1), Fraction(5, 4), "
            "Fraction(15, 8)), sizes=(1, 2, 1), cells=None)"
        )
        assert repr(LevelStructure(self.G, (0,), (4,), None, (0, 0, 0, 0))) == (
            f"LevelStructure(ground={g}, values=(0,), sizes=(4,), cells=None)"
        )
        universe = "Universe(names=('a', 'b'))"
        assert repr(mp) == (
            f"NoiseModel(kind='product', universe={universe}, ground={g}, p=Fraction(3, 4), "
            "metric=None, level_probs=None, levels=None)"
        )
        assert repr(level) == (
            f"NoiseModel(kind='level', universe={universe}, ground={g}, p=None, "
            "metric=DistanceMetric('random_table(m=2,seed=0)', m=2), "
            f"level_probs=(Fraction(3, 8), Fraction(1, 4), Fraction(1, 8)), levels={table!r})"
        )
        assert repr(verdict) == (
            "RobustnessVerdict(status='robust', rule_name='av', metric_name='trivial', m=3, "
            "k=1, witness=None, rows=(ClassSummary(j=0, pairs=6, min_prefix=Fraction(0, 1), "
            "positive_below_last=True, degenerate=False),))"
        )
        assert repr(RobustnessVerdict("robust", "av", "trivial", 2, 1, None, ())) == (
            "RobustnessVerdict(status='robust', rule_name='av', metric_name='trivial', m=2, "
            "k=1, witness=None, rows=())"
        )

    def test_equality_and_hashing(self):
        from abcc.metrics import LevelStructure, make_metric
        from abcc.noise import NoiseModel
        from abcc.oracle import RobustnessVerdict

        trivial, table, mp, level, verdict = self.values()
        for value, again in zip(self.values(), self.values()):
            assert value == again and value is not again
        # hashed as the field tuple, where every field hashes
        levels = LevelStructure(self.G, (0, 1), (1, 3), None, (0, 1, 1, 1))
        assert hash(levels) == hash((self.G, (0, 1), (1, 3), None, (0, 1, 1, 1)))
        assert levels != LevelStructure(self.G, (0, 1), (1, 3), None, (1, 0, 1, 1))
        assert levels != (self.G, (0, 1), (1, 3), None, (0, 1, 1, 1))
        assert trivial != table
        row = RobustnessVerdict("robust", "av", "trivial", 2, 1, None, ())
        assert hash(row) == hash(("robust", "av", "trivial", 2, 1, None, ()))
        assert row != RobustnessVerdict("robust", "pav", "trivial", 2, 1, None, ())
        assert hash(mp) == hash(("product", mp.universe, self.G, Fraction(3, 4), None, None))
        # a noise model compares and hashes on its level partition, without
        # its metric and distance values
        fields = ("level", mp.universe, self.G, None)
        values = LevelStructure(self.G, (0, 1, 2), level.levels.sizes, None, level.levels.sets)
        other = NoiseModel(*fields, make_metric("trivial", 2), level.level_probs, values)
        assert level == other and hash(level) == hash(other)
        assert level != NoiseModel(*fields, None, level.level_probs, None)
        assert level != NoiseModel(*fields, level.metric, (Fraction(1, 2),), level.levels)
        assert mp != level and mp != verdict
        # a field that does not hash leaves the value comparable but unhashable
        listed = LevelStructure(self.G, [0, 1], (1, 3), None, (0, 1, 1, 1))
        assert listed == LevelStructure(self.G, [0, 1], (1, 3), None, (0, 1, 1, 1))
        assert listed != LevelStructure(self.G, [0, 2], (1, 3), None, (0, 1, 1, 1))
        with pytest.raises(TypeError):
            hash(listed)

    def test_copies(self):
        for value in self.values():
            assert copy.copy(value) == copy.deepcopy(value) == pickle.loads(pickle.dumps(value))
            assert copy.copy(value) == value
        level = self.values()[3]
        for again in (copy.copy(level), copy.deepcopy(level), pickle.loads(pickle.dumps(level))):
            assert again.metric.name == level.metric.name and again.levels == level.levels
        assert copy.copy(level).metric is level.metric

    def test_immutable(self):
        for value in self.values():
            for field in ("ground", "kind", "status", "seed", "extra"):
                with pytest.raises(AttributeError):
                    setattr(value, field, None)


class TestFractionStrings:
    def test_round_trip(self):
        for text in ["3/4", "0", "-2/7", "5"]:
            assert frac_str(parse_frac(text)) == text

    def test_integer_collapses(self):
        assert frac_str(Fraction(4, 2)) == "2"

    def test_bad_input(self):
        with pytest.raises(ProfileParseError):
            parse_frac("1/0")
        with pytest.raises(ProfileParseError):
            parse_frac("abc")


class TestProfileFormat:
    def test_round_trip_with_empty_vote(self, u3):
        profile = Profile(
            (u3.set_of(["a", "b"]), u3.set_of([]), u3.set_of(["c"]))
        )
        text = "".join(format_vote_masks(u3, [vote.mask for vote in profile]))
        universe2, profile2 = parse_profile(text)
        assert universe2 == u3
        assert profile2 == profile

    @pytest.mark.parametrize("m", [1, 8, 9, 16, 17, 40, 70])
    def test_blocked_text_equals_one_label_per_vote(self, m, monkeypatch):
        # blocks of 7 votes, and a line cache that is emptied past 7m lines
        monkeypatch.setattr(core, "DRAW_BLOCK_CELLS", 7 * m)
        universe, rng = default_universe(m), np.random.default_rng(m)
        for n in (0, 1, 7, 8, 300):
            masks = [int.from_bytes(rng.bytes(9)) % (1 << m) if i % 5 else 0 for i in range(n)]
            text = reference.format_profile(
                universe, Profile(tuple(AlternativeSet(mask, m) for mask in masks))
            )
            assert "".join(format_vote_masks(universe, masks)) == text
            if m <= 62:
                assert "".join(format_vote_masks(universe, np.array(masks, dtype=np.int64))) == text

    def test_comments_and_blank_votes(self):
        text = "# header comment\nalternatives: a,b,c\na, b\n\n# mid comment\nc\n"
        universe, profile = parse_profile(text)
        assert len(profile) == 3
        assert profile.votes[0].labels(universe) == ("a", "b")
        assert profile.votes[1].size == 0
        assert profile.votes[2].labels(universe) == ("c",)

    def test_unknown_label_names_line(self):
        text = "alternatives: a,b\na\nz,b\n"
        with pytest.raises(ProfileParseError) as err:
            parse_profile(text)
        assert "line 3" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(ProfileParseError):
            parse_profile("a,b\n")

    def test_votes_before_header_rejected(self):
        with pytest.raises(ProfileParseError) as err:
            parse_profile("x\nalternatives: a,b\n")
        assert "line 1" in str(err.value)
