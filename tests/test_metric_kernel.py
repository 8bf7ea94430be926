"""The metric classifiers on the exact integer distance matrix against the
brute-force Fraction loops in reference.py: distance rows, axiom checks,
level structures, every taxonomy flag with its
witness and the monotonicity audit of noise models, on the builtin
metrics up to m = 6 (rows also at m = 18), on every random-metric family,
on raw tables and asymmetric matrices that break each axiom, and on
distances whose scaled integers do not fit in int64. The axioms of
signature metrics, decided on Venn-region counts, are checked against the
matrix scan up to m = 8 and on signature forms that break each axiom. Their
majority-concentric, natural and similarity checks, decided on the first
committee and one rival per overlap class, are checked against the
reference's sweep over every ground on signature forms that fail them."""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

import reference
from abcc.core import (
    MAX_MATRIX_CELLS,
    AlternativeSet,
    Committee,
    committee_masks,
    default_universe,
    popcount,
    scaled_integers,
)
from abcc.errors import CapExceededError, InvalidCommitteeSizeError, MetricAxiomError
from abcc.metrics import (
    DistanceMetric,
    check_metric_axioms,
    is_alternative_independent,
    is_majority_concentric,
    is_natural,
    is_similarity,
    level_structure,
    make_metric,
    random_metric,
    taxonomy_report,
)
from abcc.noise import NoiseModel, audit_d_monotonic, make_mp, staggered_level_model

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
    assert (None if check.ok else masks_of(check.witness)) == expected
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


def assert_levels_match(metric, k):
    m = metric.m
    for umask in committee_masks(m, k):
        levels = level_structure(metric, Committee(AlternativeSet(umask, m), k))
        values, level_of, sizes = reference.level_structure(metric, umask)
        assert levels.values == tuple(values)
        assert levels.level_of == tuple(level_of)
        assert levels.sizes == tuple(sizes)


def check_everything(metric, ks):
    axioms = assert_axioms_match(metric)
    for k in ks:
        assert_levels_match(metric, k)
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
    """Matrix with d(x, y) != d(y, x) for some pairs, and some of them
    also zero, where symmetry is reported before positivity."""
    n = 1 << m
    table = rng.integers(0, 5, size=(n, n))
    np.fill_diagonal(table, 0)
    matrix = [[Fraction(int(v), 2) for v in row] for row in table]
    return reference.MatrixMetric("asymmetric", matrix)


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
    matrix = [[Fraction(1 if x == 5 or x != y else 0) for y in range(8)] for x in range(8)]
    metric = reference.MatrixMetric("loop", matrix)
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
        matrix, _ = metric.rows(range(1 << m))
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
    # np.bitwise_count gives uint8 counts; a base-7 signature code of them wraps
    # unless the counts are widened
    words = np.array([[0xFFFF, 0x0F0F, 0]])
    counts = popcount(words)
    assert counts.dtype == np.int64 and counts.tolist() == [16, 8, 0]
    assert (((counts * 7 + counts) * 7 + counts) * 7 + counts).tolist() == [6400, 3200, 0]


# ---------------------------------------------------------------------------
# Distance rows: rows(masks)[0] / scale equals d cell by cell.

def assert_rows_match(metric, masks=None, terms=1):
    masks = range(1 << metric.m) if masks is None else masks
    ints, scale = metric.rows(masks, terms)
    assert ints.shape == (len(masks), 1 << metric.m)
    cells = ints.tolist()
    assert [[Fraction(v, scale) for v in r] for r in cells] == [
        reference.row(metric, x) for x in masks
    ]
    peak = max(abs(v) for r in cells for v in r)
    assert ints.dtype == (np.int64 if peak * terms < 1 << 62 else object)
    return ints


@pytest.mark.parametrize("m", range(2, 7))
def test_signature_forms_match_mask_forms(m):
    kinds = BUILTIN_METRICS + (["example2"] if m == 3 else [])
    for kind in kinds:
        metric = make_metric(kind, m)
        mask_form = reference.MASK_DISTANCES[kind]
        for x, y in itertools.product(range(1 << m), repeat=2):
            assert metric.d(x, y) == mask_form(x, y), (kind, x, y)
        assert_rows_match(metric)
        assert_rows_match(metric, committee_masks(m, m // 2), terms=3)


@pytest.mark.parametrize(
    "family,monotone,perturb",
    list(itertools.product(["table", "signature"], [False, True], [False, True])),
)
def test_random_metric_rows(family, monotone, perturb):
    for m, seed in itertools.product((2, 3, 4), range(2)):
        metric = random_metric(
            m, seed=[m, seed, 1], family=family, monotone=monotone, perturb=perturb
        )
        assert_rows_match(metric)
        assert_rows_match(metric, [3, 0, 3], terms=2)


def test_closed_form_and_raw_table_rows():
    rng = np.random.default_rng(7)
    for m in (2, 3, 4):
        assert_rows_match(asymmetric(m, rng))
        assert_rows_match(raw_table(m, rng), terms=2)


def test_object_path_rows():
    rng = np.random.default_rng(41)
    metric = huge_metric(3, rng)
    for terms in (1, 2):
        assert assert_rows_match(metric, terms=terms).dtype == object


def test_rows_at_the_int64_guard():
    # integer entries, scale 1: max|A| * 2 = 2^62 is one past the int64 side
    for top, wide in ((1 << 61, True), ((1 << 61) - 1, False)):
        table = {pair: Fraction(1) for pair in itertools.combinations(range(4), 2)}
        table[(1, 2)] = Fraction(top)
        metric = DistanceMetric("edge", 2, table=table)
        assert assert_rows_match(metric).dtype == np.int64
        ints = assert_rows_match(metric, terms=2)
        assert ints.dtype == (object if wide else np.int64)
        assert ints[1, 2] == top


def test_wide_universe_row():
    # m = 18: codes reach (m+1)^3
    m = 18
    metric = make_metric("jaccard", m)
    x = (1 << 17) | (1 << 16) | 0b1011
    ints, scale = metric.rows([x, (1 << m) - 1])
    for row, umask in zip(ints.tolist(), (x, (1 << m) - 1)):
        assert [Fraction(v, scale) for v in row] == [
            reference.d_jaccard(umask, s) for s in range(1 << m)
        ]


# ---------------------------------------------------------------------------
# Full-matrix budget.

@pytest.mark.parametrize("check", [check_metric_axioms, is_alternative_independent])
def test_full_matrix_budget(check, monkeypatch):
    class Built(Exception):
        pass

    def built(self, masks, terms=1):
        raise Built

    def table_metric(m):
        return DistanceMetric("table", m, table={}, default=Fraction(1))

    monkeypatch.setattr(DistanceMetric, "rows", built)
    assert 1 << 2 * 12 == MAX_MATRIX_CELLS
    with pytest.raises(Built):  # m = 12 passes the budget and builds rows
        check(table_metric(12))
    with pytest.raises(CapExceededError):
        check(table_metric(13))
    # a signature metric is decided without a matrix, so the budget does not hold it
    assert check(make_metric("jaccard", 13)).ok


# ---------------------------------------------------------------------------
# Axioms of signature metrics, decided on the signature grid and the Venn
# region sizes of three sets, against the matrix scan of the same distances.

def matrix_twin(metric):
    """The same distances as a dense matrix, which the matrix scan checks."""
    n = 1 << metric.m
    return reference.MatrixMetric(
        metric.name, [[metric.d(x, y) for y in range(n)] for x in range(n)]
    )


def no_rows(self, masks, terms=1):
    raise AssertionError("a distance row was built")


# (first violated axiom, signature form); None for a metric
SIGNATURE_FORMS = [
    ("identity", lambda a, b, c: Fraction(a + b or int(c == 1))),  # d(X, X) = 1 if |X| = 1
    ("symmetry", lambda a, b, c: Fraction(a + 2 * b)),
    ("positivity", lambda a, b, c: Fraction(0 if a == b == 1 else a + b)),
    ("triangle", lambda a, b, c: Fraction((a + b) ** 2)),
    ("triangle", lambda a, b, c: Fraction(a + b + 2 if a + b > 1 else a + b)),
    # scaled grids over the int64 guard: the object path
    (None, lambda a, b, c: Fraction((1 << 62) * (a + b), 3)),
    ("triangle", lambda a, b, c: Fraction((1 << 62) * (a + b) ** 2, 3)),
]


def assert_signature_axioms_match(metric, monkeypatch, expected_axiom):
    twin = matrix_twin(metric)
    expected = check_metric_axioms(twin)
    with monkeypatch.context() as patch:
        if expected.ok:  # decided on the grid alone
            patch.setattr(DistanceMetric, "rows", no_rows)
        check = check_metric_axioms(metric)
        assert is_alternative_independent(metric).ok
    assert check == expected
    assert (None if check.ok else check.witness[0]) == expected_axiom
    assert is_alternative_independent(twin).ok
    if metric.m <= 5:  # the reference loops are cubic in 2^m
        assert_axioms_match(metric)
        assert reference.alternative_independent(metric) is None


@pytest.mark.parametrize("m", range(1, 9))
def test_signature_axioms_of_builtins(m, monkeypatch):
    kinds = BUILTIN_METRICS + (["example2"] if m == 3 else [])
    for kind in kinds:
        assert_signature_axioms_match(make_metric(kind, m), monkeypatch, None)


@pytest.mark.parametrize("m", range(2, 8))
def test_signature_forms_that_break_each_axiom(m, monkeypatch):
    for axiom, form in SIGNATURE_FORMS:
        metric = DistanceMetric(axiom or "metric", m, signature=form)
        assert_signature_axioms_match(metric, monkeypatch, axiom)


def test_signature_axioms_at_m12_build_no_row(monkeypatch):
    monkeypatch.setattr(DistanceMetric, "rows", no_rows)
    metric = make_metric("jaccard", 12)
    start = time.perf_counter()
    assert check_metric_axioms(metric).ok
    assert is_alternative_independent(metric).ok
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# The classifiers of signature metrics, decided on the first committee and one
# rival per overlap class, against the reference's sweep over every ground.

# signature forms g(a, b, c) = d(X, Y), a = |X∖Y|, b = |Y∖X|, c = |X∩Y|,
# that fail some classifier; the classifiers do not ask for a metric
CLASSIFIER_FORMS = [
    lambda a, b, c: Fraction(c + 1 if a or b else 0),  # the more U and S share, the farther
    lambda a, b, c: Fraction((a - b) ** 2 + c if a or b else 0),
    lambda a, b, c: Fraction(5 if a + b == 2 else a + b),
]


def random_form(seed):
    """A seeded symmetric signature form with values in 1..3 off the diagonal."""
    values = np.random.default_rng(seed).integers(1, 4, size=(8, 8, 8))
    return lambda a, b, c: Fraction(int(values[min(a, b), max(a, b), c]) if a or b else 0)


@pytest.mark.parametrize("m", range(2, 8))
def test_signature_classifiers_match_the_sweep_over_every_ground(m):
    classifiers = {
        is_majority_concentric: lambda metric, k: reference.majority_concentric(metric, k),
        is_natural: lambda metric, k: reference.overlap_triples(metric, k, strict=False),
        is_similarity: lambda metric, k: reference.overlap_triples(metric, k, strict=True),
    }
    forms = CLASSIFIER_FORMS + [random_form([m, seed]) for seed in range(4)]
    outcomes = set()
    for i, form in enumerate(forms):
        metric = DistanceMetric(f"form{i}", m, signature=form)
        for k in range(1, m + 1):
            for check, sweep in classifiers.items():
                result = check(metric, k)
                expected = sweep(metric, k)
                assert (None if result.ok else masks_of(result.witness)) == expected
                outcomes.add((check, result.ok))
    if m >= 3:
        assert outcomes == set(itertools.product(classifiers, (True, False)))


@pytest.mark.parametrize("metric", [make_metric("jaccard", 4), random_metric(4, seed=1)],
                         ids=["signature", "table"])
def test_classifiers_refuse_a_bad_committee_size(metric):
    for k in (-1, 0, 5):
        for check in (is_majority_concentric, is_natural, is_similarity, taxonomy_report):
            with pytest.raises(InvalidCommitteeSizeError):
                check(metric, k)


def test_taxonomy_of_a_distance_without_level_structures():
    # d(X, Y) = |X∖Y| + |Y∖X|, but 1 from a singleton to itself: no metric,
    # and at k = 1 no committee has a level structure
    form = lambda a, b, c: Fraction(1 if (a, b, c) == (0, 0, 1) else a + b)  # noqa: E731
    metric = DistanceMetric("singleton_loops", 3, signature=form)
    axioms = check_metric_axioms(metric)
    assert (axioms.ok, masks_of(axioms.witness)) == (False, ("identity", (1, 1)))
    with pytest.raises(MetricAxiomError):
        is_majority_concentric(metric, 1)
    report = taxonomy_report(metric, 1)
    assert (report.is_metric, report.is_majority_concentric) == (False, False)
    assert report.witnesses["is_metric"] == ("identity", axioms.witness[1])
    assert report.witnesses["is_majority_concentric"] == ("identity", axioms.witness[1])
    # the classifiers that need no level structure run as they do alone
    for flag, check in [("is_natural", is_natural(metric, 1)),
                        ("is_similarity", is_similarity(metric, 1)),
                        ("is_alternative_independent", is_alternative_independent(metric))]:
        assert report.flags()[flag] == check.ok
        assert report.witnesses.get(flag) == check.witness
    # at k = 2 every committee has d(U, U) = 0, so the concentric check runs
    concentric = is_majority_concentric(metric, 2)
    report = taxonomy_report(metric, 2)
    assert report.is_majority_concentric == concentric.ok
    assert report.witnesses.get("is_majority_concentric") == concentric.witness


# ---------------------------------------------------------------------------
# Monotonicity audit of noise models.

def assert_audit_matches(model, metric):
    expected = reference.audit_d_monotonic(model, metric)
    assert audit_d_monotonic(model, metric) == expected
    return expected[0]


def test_audit_on_builtins():
    outcomes = set()
    for m in range(2, 6):
        metrics = [make_metric(kind, m) for kind in BUILTIN_METRICS]
        for k in range(1, m):
            for umask in committee_masks(m, k)[:3]:
                ground = Committee(AlternativeSet(umask, m), k)
                for own, other in itertools.product(metrics, repeat=2):
                    model = staggered_level_model(own, ground)
                    outcomes.add(assert_audit_matches(model, other))
                product = make_mp(Fraction(3, 4), default_universe(m), ground)
                for metric in metrics:
                    outcomes.add(assert_audit_matches(product, metric))
    example2 = make_metric("example2", 3)
    for umask in committee_masks(3, 2):
        ground = Committee(AlternativeSet(umask, 3), 2)
        assert assert_audit_matches(staggered_level_model(example2, ground), example2)
    assert outcomes == {True, False}


def test_audit_on_tampered_level_tables():
    rng = np.random.default_rng(5)
    for m in (3, 4, 5):
        metric = random_metric(m, seed=[m, 9], family="signature", perturb=True)
        ground = Committee(AlternativeSet(0b11, m), 2)
        model = staggered_level_model(metric, ground)
        assert assert_audit_matches(model, metric)
        probs = list(model.level_probs)
        for _ in range(6):
            # swap two levels, or make two levels equal: the table keeps its
            # metric but breaks the strict-iff condition somewhere
            i, j = sorted(rng.choice(len(probs), size=2, replace=False))
            tampered = probs.copy()
            if rng.integers(0, 2):
                tampered[i], tampered[j] = tampered[j], tampered[i]
            else:
                tampered[j] = tampered[i]
            bad = NoiseModel(
                "level", model.universe, ground, metric=metric,
                level_probs=tuple(tampered), levels=model.levels,
            )
            assert not assert_audit_matches(bad, metric)
