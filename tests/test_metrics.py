import hashlib
import json
from fractions import Fraction

import pytest

import reference
from abcc.core import AlternativeSet, default_universe, frac_str
from abcc.errors import CapExceededError, MetricAxiomError, ProfileParseError
from abcc.metrics import (
    check_metric_axioms,
    is_alternative_independent,
    is_majority_concentric,
    is_natural,
    is_similarity,
    level_structure,
    load_metric_file,
    make_metric,
    metric_from_json,
    metric_to_json,
    random_metric,
    taxonomy_report,
)
from conftest import committee_of

BUILTINS = ["set_difference", "jaccard", "zelinka", "bunke_shearer"]


class TestBuiltinValues:
    def test_closed_forms(self, u4):
        x = u4.set_of(["a", "b"]).mask
        y = u4.set_of(["a", "c"]).mask
        assert make_metric("set_difference", 4).d(x, y) == 2
        assert make_metric("jaccard", 4).d(x, y) == Fraction(2, 3)
        assert make_metric("zelinka", 4).d(x, y) == 1
        assert make_metric("bunke_shearer", 4).d(x, y) == Fraction(1, 2)
        assert make_metric("trivial", 4).d(x, y) == 1

    def test_normalized_metrics_pin_empty_pair_to_zero(self):
        for kind in ("jaccard", "bunke_shearer"):
            assert make_metric(kind, 4).d(0, 0) == 0

    def test_ratio_identities_up_to_m8(self):
        # d_J * |X∪Y| = d_Δ and d_BS * max(|X|,|Y|) = d_Z on every pair
        m = 8
        dd = make_metric("set_difference", m)
        dj = make_metric("jaccard", m)
        dz = make_metric("zelinka", m)
        dbs = make_metric("bunke_shearer", m)
        for x in range(1 << m):
            for y in range(x + 1, 1 << m):
                union = (x | y).bit_count()
                top = max(x.bit_count(), y.bit_count())
                assert dj.d(x, y) * union == dd.d(x, y)
                assert dbs.d(x, y) * top == dz.d(x, y)

    def test_example2_values(self, u3):
        d = make_metric("example2", 3)
        assert d.d(u3.set_of(["a", "b"]).mask, u3.set_of(["c"]).mask) == 1
        assert d.d(u3.set_of(["a", "b"]).mask, u3.set_of(["a", "c"]).mask) == 2
        assert d.d(u3.set_of(["a"]).mask, u3.set_of(["a"]).mask) == 0

    def test_example2_requires_m3(self):
        with pytest.raises(Exception):
            make_metric("example2", 4)


class TestAxioms:
    @pytest.mark.parametrize("kind", BUILTINS + ["trivial"])
    def test_builtins_pass_m4(self, kind):
        assert check_metric_axioms(make_metric(kind, 4)).ok

    def test_jaccard_all_triples_m5(self):
        assert check_metric_axioms(make_metric("jaccard", 5)).ok

    def test_zero_off_diagonal_fails_positivity(self):
        from abcc.metrics import DistanceMetric

        table = {(a, b): Fraction(1) for a in range(8) for b in range(a + 1, 8)}
        table[(1, 2)] = Fraction(0)
        check = check_metric_axioms(DistanceMetric("bad", 3, table=table))
        assert not check.ok and check.witness[0] == "positivity"
        assert {s.mask for s in check.witness[1]} == {1, 2}

    def test_triangle_violation_with_witness(self):
        from abcc.metrics import DistanceMetric

        table = {(a, b): Fraction(1) for a in range(8) for b in range(a + 1, 8)}
        table[(1, 2)] = Fraction(10)
        check = check_metric_axioms(DistanceMetric("bad", 3, table=table))
        assert not check.ok and check.witness[0] == "triangle"
        i, j, k = (s.mask for s in check.witness[1])
        metric = DistanceMetric("bad", 3, table=table)
        assert metric.d(i, k) > metric.d(i, j) + metric.d(j, k)

    def test_custom_constructor_rejects_non_metric(self):
        table = {(a, b): Fraction(1) for a in range(4) for b in range(a + 1, 4)}
        table[(1, 2)] = Fraction(5)
        with pytest.raises(MetricAxiomError):
            make_metric("custom", 2, table=table)


class TestLevelStructure:
    def test_trivial_two_levels(self, u4):
        levels = level_structure(make_metric("trivial", 4), committee_of(u4, ["a", "b"]))
        assert levels.spn == 1
        assert levels.sizes == (1, 15)
        assert levels.values == (0, 1)

    def test_set_difference_binomial_levels(self, u4):
        levels = level_structure(
            make_metric("set_difference", 4), committee_of(u4, ["a", "b"])
        )
        assert levels.values == (0, 1, 2, 3, 4)
        assert levels.sizes == (1, 4, 6, 4, 1)

    def test_example2_middle_level_is_complement(self, u3):
        levels = level_structure(make_metric("example2", 3), committee_of(u3, ["a", "b"]))
        assert levels.values == (0, 1, 2)
        middle = [mask for mask, t in enumerate(levels.level_of) if t == 1]
        assert [AlternativeSet(mask, 3).labels(u3) for mask in middle] == [("c",)]

    def test_partition_sums_to_power_set(self, rng):
        for seed in range(5):
            m = int(rng.integers(2, 6))
            d = random_metric(m, seed=[1, seed])
            u = default_universe(m)
            levels = level_structure(d, committee_of(u, u.names[:2]))
            assert sum(levels.sizes) == 1 << m

    def test_level_zero_contains_ground(self, u4):
        for kind in BUILTINS:
            levels = level_structure(make_metric(kind, 4), committee_of(u4, ["a", "c"]))
            assert levels.level_of[u4.set_of(["a", "c"]).mask] == 0
            assert levels.sizes[0] == 1


class TestNeighborhoodCounts:
    """N^t(a|b), the sets holding a but not b within level t, counted on the
    levels of `level_structure` by `reference.neighborhood_count`."""

    def test_radius_zero(self, u4):
        levels = level_structure(make_metric("jaccard", 4), committee_of(u4, ["a", "b"]))
        # only the ground set itself sits at radius zero
        assert reference.neighborhood_count(levels.level_of, 0, 2, 0) == 1  # a in U, c not
        assert reference.neighborhood_count(levels.level_of, 2, 0, 0) == 0  # c not in U
        assert reference.neighborhood_count(levels.level_of, 2, 3, 0) == 0

    def test_full_radius_counts_quarter_of_power_set(self, u4):
        levels = level_structure(make_metric("set_difference", 4), committee_of(u4, ["a", "b"]))
        assert reference.neighborhood_count(levels.level_of, 0, 2, levels.spn) == 4  # 2^(m-2)

    def test_non_decreasing_in_radius(self, u4, rng):
        levels = level_structure(random_metric(4, seed=5), committee_of(u4, ["a", "d"]))
        for a, b in [(0, 1), (3, 2)]:
            counts = [
                reference.neighborhood_count(levels.level_of, a, b, t)
                for t in range(levels.spn + 1)
            ]
            assert counts == sorted(counts)


class TestTaxonomy:
    def test_example2_concentric_but_not_natural(self, u3):
        d = make_metric("example2", 3)
        assert is_majority_concentric(d, 2)
        natural = is_natural(d, 2)
        assert not natural
        ground, rival, s = natural.witness
        # the canonical counterexample: U={a,b}, V={a,c}, S={b}
        assert ground.labels(u3) == ("a", "b")
        assert rival.labels(u3) == ("a", "c")
        assert s.labels(u3) == ("b",)
        assert d.d(ground.mask, s.mask) == 2
        assert d.d(rival.mask, s.mask) == 1

    @pytest.mark.parametrize("kind", BUILTINS)
    def test_builtins_are_similarity(self, kind):
        d = make_metric(kind, 4)
        assert is_similarity(d, 2)
        assert is_natural(d, 2)
        assert is_majority_concentric(d, 2)

    def test_trivial_natural_not_similarity(self):
        d = make_metric("trivial", 4)
        assert is_natural(d, 2)
        check = is_similarity(d, 2)
        assert not check
        ground, rival, s = check.witness
        assert d.d(ground.mask, s.mask) == d.d(rival.mask, s.mask) == 1

    def test_alternative_independence(self):
        assert is_alternative_independent(make_metric("set_difference", 4))
        assert is_alternative_independent(make_metric("trivial", 4))
        assert is_alternative_independent(make_metric("jaccard", 5))

    def test_alternative_dependent_witness(self):
        from abcc.metrics import DistanceMetric

        table = {(a, b): Fraction(2) for a in range(8) for b in range(a + 1, 8)}
        table[(1, 2)] = Fraction(1)  # {a} vs {b} closer than other singleton pairs
        d = DistanceMetric("dep", 3, table=table)
        check = is_alternative_independent(d)
        assert not check
        (x1, y1), (x2, y2) = check.witness
        sig = lambda x, y: (
            (x.mask & ~y.mask).bit_count(),
            (y.mask & ~x.mask).bit_count(),
            x.size,
            y.size,
        )
        assert sig(x1, y1) == sig(x2, y2)
        assert d.d(x1.mask, y1.mask) != d.d(x2.mask, y2.mask)

    def test_implication_chain_on_generated_metrics(self):
        # similarity => natural => majority-concentric, for every generated
        # metric at small sizes
        for m, k in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]:
            for i in range(6):
                family = "table" if i % 2 == 0 else "signature"
                d = random_metric(m, seed=[m, k, i], family=family, monotone=(i == 5))
                sim = bool(is_similarity(d, k))
                nat = bool(is_natural(d, k))
                conc = bool(is_majority_concentric(d, k))
                assert (not sim or nat) and (not nat or conc)

    def test_report_flags_consistent(self, u3):
        report = taxonomy_report(make_metric("example2", 3), 2)
        assert report.is_metric and report.is_majority_concentric
        assert not report.is_natural and not report.is_similarity
        # disjoint-and-covering is expressible through the size signature
        assert report.is_alternative_independent
        assert "is_natural" in report.witnesses


class TestRandomMetrics:
    def test_seed_determinism(self):
        a = random_metric(4, seed=42)
        b = random_metric(4, seed=42)
        assert a._table == b._table

    def test_always_a_metric(self):
        for i in range(8):
            d = random_metric(3, seed=i, family="table", perturb=(i % 2 == 0))
            assert check_metric_axioms(d).ok

    def test_signature_family_is_alternative_independent(self):
        for i in range(4):
            d = random_metric(4, seed=[2, i], family="signature")
            assert is_alternative_independent(d)

    def test_monotone_signature_family_is_natural(self):
        for i in range(8):
            d = random_metric(4, seed=[3, i], family="signature", monotone=True)
            for k in (1, 2, 3):
                assert is_natural(d, k), (i, k)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            random_metric(3, seed=0, family="nope")

    def test_seeded_streams_are_pinned(self):
        # the table family and the monotone signature family draw what they
        # drew when the signature family still listed its pairs as a table
        def distances_sha256(metrics):
            text = ";".join(
                ",".join(frac_str(d.d(x, y)) for x in range(1 << d.m) for y in range(1 << d.m))
                for d in metrics
            )
            return hashlib.sha256(text.encode()).hexdigest()

        tables = [
            random_metric(m, [m, i], perturb=(i % 2 == 0)) for m in (2, 3, 4) for i in range(6)
        ]
        monotone = [
            random_metric(m, seed=[m, i], family="signature", monotone=True, perturb=(i % 2 == 0))
            for m in (2, 3, 4, 5)
            for i in range(10)
        ]
        assert distances_sha256(tables) == (
            "a9b69bae99d491a8a09adac5f0faaed8bcb4709ca6df5ac1c77852a843eccb7d"
        )
        assert distances_sha256(monotone) == (
            "ccde3c9cd922adb31d51a8d2b111a95ce9d87858e6060544d462a617e513415e"
        )

    def test_signature_family_values(self):
        # one value in [1, 2] per signature cell, symmetric in (a, b)
        for perturb in (True, False):
            d = random_metric(5, seed=[4, perturb], family="signature", perturb=perturb)
            values = {d.d(x, y) for x in range(32) for y in range(32) if x != y}
            assert values <= {1 + Fraction(i, 8) for i in range(9)}
            assert perturb or values == {1, 2}
            assert all(d.d(x, y) == d.d(y, x) for x in range(32) for y in range(32))


class TestMetricFiles:
    def test_round_trip_custom(self, tmp_path):
        d = random_metric(3, seed=9)
        doc = metric_to_json(d)
        again = metric_from_json(doc)
        for x in range(8):
            for y in range(8):
                assert d.d(x, y) == again.d(x, y)

    def test_round_trip_table_named_like_a_builtin(self):
        # a table is written as its table whatever its name
        doc = metric_to_json(random_metric(3, seed=9))
        doc["name"] = "jaccard"
        named = metric_from_json(doc)
        again = metric_from_json(metric_to_json(named))
        assert again.name == "jaccard"
        assert all(again.d(x, y) == named.d(x, y) for x in range(8) for y in range(8))

    def test_random_signature_metric_is_written_as_its_table(self):
        d = random_metric(3, seed=9, family="signature")
        doc = metric_to_json(d)
        assert (doc["kind"], doc["name"], len(doc["entries"])) == ("custom", d.name, 28)
        again = metric_from_json(doc)
        assert all(again.d(x, y) == d.d(x, y) for x in range(8) for y in range(8))
        # a signature metric's table is capped as a table metric is
        with pytest.raises(CapExceededError):
            metric_to_json(random_metric(13, seed=9, family="signature"))

    def test_builtin_reference(self):
        doc = metric_to_json(make_metric("jaccard", 4))
        assert doc == {"kind": "jaccard", "m": 4}
        assert metric_from_json(doc).name == "jaccard"

    def test_symmetric_entries_inferred(self, tmp_path):
        u = default_universe(2)
        entries = []
        pairs = [("a", "b"), ("a", "ab"), ("a", ""), ("b", "ab"), ("b", ""), ("ab", "")]
        name_sets = {"a": ["a"], "b": ["b"], "ab": ["a", "b"], "": []}
        for left, right in pairs:
            entries.append({"x": name_sets[left], "y": name_sets[right], "d": "1"})
        doc = {"m": 2, "entries": entries}
        d = metric_from_json(doc)
        assert d.d(1, 2) == 1 and d.d(2, 1) == 1

    def test_incomplete_table_rejected(self):
        doc = {"m": 2, "entries": [{"x": ["a"], "y": ["b"], "d": "1"}]}
        with pytest.raises(ProfileParseError):
            metric_from_json(doc)

    def test_non_metric_file_rejected_with_witness(self, tmp_path):
        d = random_metric(2, seed=3)
        doc = metric_to_json(d)
        doc["entries"][0]["d"] = "50"  # break the triangle inequality
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MetricAxiomError) as err:
            load_metric_file(path)
        assert err.value.witness is not None
