"""The metric classifiers on the exact integer distance matrix against the
brute-force Fraction loops in reference.py: axiom checks, level
structures, neighborhood counts and every taxonomy flag with its witness,
on the builtin metrics up to m = 6, on every random-metric family, on raw
tables and asymmetric closed forms that break each axiom, and on
distances whose scaled integers do not fit in int64."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import reference
from abcc.core import AlternativeSet, Committee, committee_masks, popcount, scaled_integers
from abcc.metrics import (
    DistanceMetric,
    check_metric_axioms,
    level_structure,
    make_metric,
    neighborhood_count,
    random_metric,
    taxonomy_report,
)

BUILTIN_METRICS = ["set_difference", "jaccard", "zelinka", "bunke_shearer", "trivial"]


def masks_of(witness):
    """The witness with every set and committee replaced by its mask."""
    if isinstance(witness, (AlternativeSet, Committee)):
        return witness.mask
    if isinstance(witness, tuple):
        return tuple(masks_of(w) for w in witness)
    return witness


def assert_axioms_match(metric):
    expected = reference.metric_axioms(metric)
    check = check_metric_axioms(metric)
    assert (None if check.ok else (check.axiom, masks_of(check.witness))) == expected
    return expected


def assert_taxonomy_matches(metric, k, axioms):
    expected = {
        "is_metric": axioms,
        "is_majority_concentric": reference.majority_concentric(metric, k),
        "is_natural": reference.overlap_triples(metric, k, strict=False),
        "is_similarity": reference.overlap_triples(metric, k, strict=True),
        "is_alternative_independent": reference.alternative_independent(metric),
    }
    report = taxonomy_report(metric, k)
    assert report.flags() == {flag: w is None for flag, w in expected.items()}
    witnesses = {flag: masks_of(w) for flag, w in report.witnesses.items()}
    assert witnesses == {flag: w for flag, w in expected.items() if w is not None}


def assert_levels_match(metric, k, neighborhoods=False):
    m = metric.m
    for umask in committee_masks(m, k):
        levels = level_structure(metric, Committee(AlternativeSet(umask, m), k))
        values, level_of, sizes = reference.level_structure(metric, umask)
        assert levels.values == tuple(values)
        assert levels.level_of == tuple(level_of)
        assert levels.sizes == tuple(sizes)
        if neighborhoods:
            ground = levels.ground
            for a, b in itertools.permutations(range(m), 2):
                for t in range(levels.spn + 1):
                    want = reference.neighborhood_count(level_of, a, b, t)
                    assert neighborhood_count(metric, ground, a, b, t) == want, (a, b, t)
            neighborhoods = False  # every (a, b, t) on the first ground of each k


def check_everything(metric, ks):
    axioms = assert_axioms_match(metric)
    for k in ks:
        assert_levels_match(metric, k, neighborhoods=True)
        assert_taxonomy_matches(metric, k, axioms)


@pytest.mark.parametrize("m", range(2, 7))
def test_builtins(m):
    metrics = [make_metric(kind, m) for kind in BUILTIN_METRICS]
    if m == 3:
        metrics.append(make_metric("example2", 3))
    for metric in metrics:
        check_everything(metric, range(1, m))


@pytest.mark.parametrize(
    "family,monotone,perturb",
    list(itertools.product(["table", "signature"], [False, True], [False, True])),
)
def test_random_metric_families(family, monotone, perturb):
    for m, seed in itertools.product((3, 4, 5), range(2)):
        metric = random_metric(
            m, seed=[m, seed], family=family, monotone=monotone, perturb=perturb
        )
        check_everything(metric, range(1, m))


def raw_table(m, rng):
    """Random symmetric table with zero, negative and oversized entries."""
    n = 1 << m
    values = [Fraction(-1), Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7)]
    weights = [0.02, 0.03, 0.35, 0.25, 0.3, 0.05]
    table = {}
    for a, b in itertools.combinations(range(n), 2):
        table[(a, b)] = values[int(rng.choice(len(values), p=weights))]
    return DistanceMetric("raw", m, table=table)


def asymmetric(m, rng):
    """Closed form with d(x, y) != d(y, x) for some pairs, and some of
    them also zero, where symmetry is reported before positivity."""
    n = 1 << m
    table = rng.integers(0, 5, size=(n, n))
    np.fill_diagonal(table, 0)
    return DistanceMetric("asymmetric", m, fn=lambda x, y: Fraction(int(table[x, y]), 2))


def test_raw_tables_and_asymmetric_metrics():
    rng = np.random.default_rng(31)
    seen = set()
    for m in (2, 3, 4):
        for _ in range(12):
            for metric in (raw_table(m, rng), asymmetric(m, rng)):
                axioms = assert_axioms_match(metric)
                seen.add(None if axioms is None else axioms[0])
                for k in range(1, m):
                    assert_taxonomy_matches(metric, k, axioms)
    assert {"symmetry", "positivity", "triangle"} <= seen


def test_identity_witness():
    # d(x, x) != 0 on one set, which the diagonal scan must report first
    def fn(x, y):
        return Fraction(1 if x == 5 or x != y else 0)

    metric = DistanceMetric("loop", 3, fn=fn)
    assert assert_axioms_match(metric) == ("identity", (5, 5))


def huge_metric(m, rng, violate=False):
    """Entries just above 2^63 with denominators near 2^40: valid unless
    `violate` lifts one entry to 2^65."""
    table = {}
    for a, b in itertools.combinations(range(1 << m), 2):
        den = (1 << 40) + int(rng.integers(1, 64))
        table[(a, b)] = (1 << 63) + Fraction(int(rng.integers(0, 1 << 30)), den)
    if violate:
        table[(1, 2)] = Fraction(1 << 65)
    return DistanceMetric("huge", m, table=table)


@pytest.mark.parametrize("violate", [False, True])
def test_object_path(violate):
    rng = np.random.default_rng(40)
    for m in (3, 4):
        metric = huge_metric(m, rng, violate)
        matrix, _ = scaled_integers([metric.row(x) for x in range(1 << m)])
        assert matrix.dtype == object
        check_everything(metric, range(1, m))


def test_scaled_integers_guard():
    values = [Fraction(1, 3), Fraction((1 << 59) - 1, 2)]
    ints, scale = scaled_integers(values, terms=2)
    assert scale == 6 and ints.dtype == np.int64 and ints.tolist() == [2, 3 * ((1 << 59) - 1)]
    assert scaled_integers(values, terms=3)[0].dtype == object
    nested, _ = scaled_integers([[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(3)]])
    assert nested.shape == (2, 2) and nested.tolist() == [[1, 2], [0, 6]]


def test_popcount_counts_are_wide():
    # 16-bit lookup counts are uint8; a base-7 signature code of them wraps
    # unless the counts are widened
    words = np.array([[0xFFFF, 0x0F0F, 0]])
    counts = popcount(words)
    assert counts.dtype == np.int64 and counts.tolist() == [16, 8, 0]
    assert (((counts * 7 + counts) * 7 + counts) * 7 + counts).tolist() == [6400, 3200, 0]
