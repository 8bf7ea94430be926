"""Distance metrics over alternative sets and their taxonomy checkers.

Distances are exact rationals throughout: level grouping, concentricity
counts, and every downstream robustness verdict depend on exact equality
and strict sign comparisons, so floats never enter here.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import NamedTuple

import numpy as np

from .core import (  # METRIC_KINDS is re-exported
    METRIC_KINDS,
    AlternativeSet,
    Committee,
    Frozen,
    Memo,
    Universe,
    binomial_row,
    check_classes,
    check_k,
    check_matrix,
    check_sets,
    committee_masks,
    default_universe,
    first_rival,
    frac_str,
    int64_if_fits,
    mask_words,
    overlap_classes,
    parse_frac,
    popcount,
    read_json,
    scaled_integers,
)
from .errors import (
    DomainMismatchError,
    MetricAxiomError,
    PreconditionError,
    ProfileParseError,
)


# The builtin closed forms as functions of the signature (a, b, c) =
# (|X∖Y|, |Y∖X|, |X∩Y|) of two sets; "or 1" pins 0/0 (both sets empty)
# to 0, as the identity axiom requires.
_SIGNATURES = {
    "set_difference": lambda a, b, c: Fraction(a + b),
    "jaccard": lambda a, b, c: Fraction(a + b, a + b + c or 1),
    "zelinka": lambda a, b, c: Fraction(max(a, b)),
    "bunke_shearer": lambda a, b, c: Fraction(max(a, b), max(a, b) + c or 1),
    "trivial": lambda a, b, c: Fraction(1 if a or b else 0),
    # m = 3 only: complements (c = 0, a + b = 3) are at distance 1
    "example2": lambda a, b, c: Fraction(0 if a == b == 0 else 1 if c == 0 and a + b == 3 else 2),
}


class DistanceMetric:
    """Exact-valued distance on subsets of an m-alternative universe.

    Backed by a closed form of the signature (|X∖Y|, |Y∖X|, |X∩Y|)
    (builtins) or by a table keyed on unordered mask pairs (custom, random
    and constructed metrics) with a `default` distance for the pairs it
    omits. Immutable after construction; the axiom check and the level
    structures (per ground set, and a signature metric's (x, y) grid per
    committee size) are cached.
    """

    def __init__(self, name, m, *, table=None, default=None, signature=None):
        if (table is None) == (signature is None):
            raise ValueError("exactly one of table/signature required")
        self.name = name
        self.m = m
        self._table = table
        self._default = default
        self._signature = signature
        self._ints = None  # (integer grid or matrix, scale), built by the first rows()
        self._axioms = None  # the AxiomCheck, made by the first check_metric_axioms()
        self._level_cache: dict = {}  # ground mask or ("grid", k) -> levels

    def d(self, xmask: int, ymask: int) -> Fraction:
        """Distance between two sets given as masks."""
        if self._signature is not None:
            x, y = xmask, ymask
            return self._signature((x & ~y).bit_count(), (y & ~x).bit_count(), (x & y).bit_count())
        if xmask == ymask:
            return Fraction(0)
        key = (xmask, ymask) if xmask < ymask else (ymask, xmask)
        return self._table.get(key, self._default)

    def distance(self, x: AlternativeSet, y: AlternativeSet) -> Fraction:
        if x.m != self.m or y.m != self.m:
            raise PreconditionError("sets do not match the metric's universe size")
        return self.d(x.mask, y.mask)

    def rows(self, masks, terms: int = 1) -> tuple[np.ndarray, int]:
        """(A, scale) with A[i, s] = scale * d(masks[i], s) for all 2^m sets s,
        as exact integers under the int64 guard of `scaled_integers`.

        Signature metrics scale their (m+1)^3 signature grid once and gather
        rows by signature code, table metrics scale their table once into a
        dense 2^m x 2^m matrix.
        """
        ints, scale = self._integers()
        if self._signature is not None:
            gathered = ints[_signature_codes(masks, self.m)]
        else:
            gathered = ints[np.asarray(masks)]
        return int64_if_fits(gathered, terms), scale

    def _integers(self) -> tuple[np.ndarray, int]:
        """The scaled signature grid or table matrix, built once."""
        if self._ints is None:
            self._ints = self._signature_grid() if self._table is None else self._table_matrix()
        return self._ints

    def _signature_grid(self) -> tuple[np.ndarray, int]:
        # cells with a + b + c > m are the signature of no pair of sets; 0
        # keeps them out of the scale
        cells = product(range(self.m + 1), repeat=3)
        return scaled_integers(
            [self._signature(*abc) if sum(abc) <= self.m else Fraction(0) for abc in cells]
        )

    def _table_matrix(self) -> tuple[np.ndarray, int]:
        # the default (0 without one) shares the entries' scale
        n = 1 << self.m
        xs, ys = np.array(list(self._table), dtype=np.int64).reshape(-1, 2).T
        values, scale = scaled_integers([*self._table.values(), self._default or 0])
        matrix = np.full((n, n), values[-1], dtype=values.dtype)
        np.fill_diagonal(matrix, 0)
        matrix[xs, ys] = matrix[ys, xs] = values[:-1]
        return matrix, scale

    def __repr__(self):
        return f"DistanceMetric({self.name!r}, m={self.m})"


def _signature_codes(masks, m: int) -> np.ndarray:
    """codes[i, s] = (a * (m+1) + b) * (m+1) + c for the signature
    (a, b, c) = (|X∖S|, |S∖X|, |X∩S|) of X = masks[i] and every set S."""
    sets = mask_words(range(1 << m), m)
    words = mask_words(masks, m)
    both = popcount(words[:, :, None] & sets[:, None, :])
    base = m + 1
    return ((popcount(words)[:, None] - both) * base + popcount(sets) - both) * base + both


def make_metric(kind: str, m: int, *, table=None, default=None, name=None) -> DistanceMetric:
    """Build a builtin metric, or wrap a custom table (axioms verified).

    `table` maps unordered mask pairs (a, b) with a < b to positive
    rationals, and `default`, if given, is the distance of every pair it
    leaves out; the diagonal is implicitly zero. example2 is the m=3
    complement-at-distance-one construction and rejects other m.
    """
    if kind == "example2" and m != 3:
        raise PreconditionError("example2 is defined only for m=3")
    if kind in _SIGNATURES:
        return DistanceMetric(kind, m, signature=_SIGNATURES[kind])
    if kind == "custom":
        if table is None:
            raise ValueError("custom metric requires a table")
        metric = DistanceMetric(
            name or "custom", m, table=_normalize_table(m, table, default), default=default
        )
        check = check_metric_axioms(metric)
        if not check.ok:
            raise MetricAxiomError(
                f"table violates the {check.axiom} axiom", witness=check.witness
            )
        return metric
    raise ValueError(f"unknown metric kind {kind!r}")


def _normalize_table(m, table, default=None) -> dict[tuple[int, int], Fraction]:
    clean = {}
    for (a, b), value in table.items():
        if a == b:
            if Fraction(value) != 0:
                raise MetricAxiomError(
                    "diagonal entries must be zero",
                    witness=(AlternativeSet(a, m), AlternativeSet(b, m)),
                )
            continue
        key = (a, b) if a < b else (b, a)
        value = value if type(value) is Fraction else Fraction(value)  # keep shared values shared
        if key in clean and clean[key] != value:
            raise MetricAxiomError(
                "conflicting symmetric entries",
                witness=(AlternativeSet(key[0], m), AlternativeSet(key[1], m)),
            )
        clean[key] = value
    n = 1 << m
    expected = n * (n - 1) // 2
    if default is None and len(clean) != expected:
        raise ProfileParseError(
            f"incomplete metric table: {len(clean)} of {expected} unordered pairs"
        )
    return clean


class AxiomCheck(NamedTuple):
    ok: bool
    axiom: str | None = None
    witness: tuple[AlternativeSet, ...] | None = None

    def __bool__(self):
        return self.ok


def check_metric_axioms(metric: DistanceMetric) -> AxiomCheck:
    """Verify identity, positivity, symmetry, and the triangle inequality.

    A signature metric is decided on its signature grid and on the sizes of
    the Venn regions of three sets (`_signature_axioms_hold`), without a
    distance row, at m <= MAX_M. A table metric, or a signature metric that
    grid check refutes, is scanned over all pairs and triples of the 2^m
    subsets, on the distance matrix scaled to exact integers, within
    MAX_MATRIX_CELLS. The witness is the first violation in (i, j) order
    (diagonal first), then in (pivot j, i, k) order for the triangle
    inequality. The check is made once per metric.
    """
    if metric._axioms is None:
        metric._axioms = _axiom_check(metric)
    return metric._axioms


def _axiom_check(metric: DistanceMetric) -> AxiomCheck:
    m = metric.m
    if metric._signature is not None and _signature_axioms_hold(metric):
        return AxiomCheck(True)
    check_matrix(m)
    n = 1 << m
    D = metric.rows(range(n), terms=2)[0]

    def sets(*masks):
        return tuple(AlternativeSet(int(mask), m) for mask in masks)

    asymmetric = D != D.T
    bad = np.triu(asymmetric | (D <= 0), 1)
    np.fill_diagonal(bad, np.diagonal(D) != 0)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), n)
        axiom = "identity" if i == j else "symmetry" if asymmetric[i, j] else "positivity"
        return AxiomCheck(False, axiom, sets(i, j))
    for j in range(n):
        shortcut = D[:, j, None] + D[None, j, :] < D
        if shortcut.any():
            i, k = np.argwhere(shortcut)[0]
            return AxiomCheck(False, "triangle", sets(i, j, k))
    return AxiomCheck(True)


def _signature_axioms_hold(metric: DistanceMetric) -> bool:
    """Whether the signature grid g of a signature metric is a metric.

    Identity: g(0, 0, c) = 0. Symmetry and positivity: g(a, b, c) =
    g(b, a, c), and g > 0 when a + b > 0, on the cells with a + b + c <= m.
    Triangle: the sizes of the 7 Venn regions of (X, Y, Z), summing to at
    most m, fix the signatures of (X, Y), (Y, Z) and (X, Z); all C(m+7, 7)
    such size vectors come from one stars-and-bars enumeration.
    """
    m = metric.m
    check_sets(m)  # C(m+7, 7) vectors: 245,157 at m = 16
    grid = int64_if_fits(metric._integers()[0], terms=2).reshape((m + 1,) * 3)
    a, b, c = np.indices(grid.shape)
    bad = (grid != grid.transpose(1, 0, 2)) | ((grid <= 0) & (a + b > 0))
    if (grid[0, 0] != 0).any() or (bad & (a + b + c <= m)).any():
        return False
    bars = np.array(list(combinations(range(m + 7), 7)))
    x, y, z, xy, xz, yz, xyz = (np.diff(bars, axis=1, prepend=-1) - 1).T
    d_xy = grid[x + xz, y + yz, xy + xyz]
    d_yz = grid[y + xy, z + xz, yz + xyz]
    d_xz = grid[x + xy, z + yz, xz + xyz]
    return bool((d_xz <= d_xy + d_yz).all())


class LevelStructure(Frozen):
    """Distinct distances from a ground committee and the induced partition.

    values[t] is the t-th smallest distance (values[0] = 0) and sizes[t]
    counts the sets at level t; `spn` is the number of distinct non-zero
    values. A signature metric's sets at one (x, y) = (|S ∩ U|, |S ∖ U|) lie
    at one level, cells[x][y], so its structure is built on that grid, at any
    m within `check_classes`; a table metric's gives each set's level in `sets`.
    """

    _fields = ("ground", "values", "sizes", "cells", "sets")

    def __init__(
        self,
        ground: Committee,
        values: tuple[Fraction, ...],
        sizes: tuple[int, ...],
        cells: tuple[tuple[int, ...], ...] | None = None,
        sets: tuple[int, ...] | None = None,
    ):
        vars(self).update(ground=ground, values=values, sizes=sizes, cells=cells, sets=sets)

    def __repr__(self):  # without `sets`, one level per set
        return (
            f"LevelStructure(ground={self.ground!r}, values={self.values!r}, "
            f"sizes={self.sizes!r}, cells={self.cells!r})"
        )

    @property
    def spn(self) -> int:
        return len(self.values) - 1

    @functools.cached_property
    def level_of(self) -> tuple[int, ...]:
        """Each set's level index, by mask; from the cells on first use, for m <= MAX_M."""
        if self.cells is None:
            return self.sets
        m = self.ground.m
        check_sets(m)
        words = mask_words(range(1 << m), m)
        x = popcount(words & mask_words([self.ground.mask], m))
        return tuple(np.asarray(self.cells)[x, popcount(words) - x].tolist())

    def level_sets(self, t: int) -> list[AlternativeSet]:
        m = self.ground.m
        return [AlternativeSet(s, m) for s, lev in enumerate(self.level_of) if lev == t]


def level_structure(metric: DistanceMetric, ground: Committee) -> LevelStructure:
    """Group all 2^m subsets by their exact distance from the ground committee;
    a signature metric's on its (x, y) grid, made once per committee size."""
    m = metric.m
    if ground.m != m:
        raise PreconditionError("ground committee does not match the metric's universe")
    cached = metric._level_cache.get(ground.mask)
    if cached is not None:
        return cached
    if metric._signature is not None:
        grid = metric._level_cache.get(("grid", ground.k))
        if grid is None:
            check_classes(m, ground.k)  # its users sum over the overlap classes
            grid = metric._level_cache["grid", ground.k] = _signature_levels(metric, ground)
        structure = LevelStructure(ground, *grid)
    else:
        check_sets(m)
        (row,), scale = metric.rows([ground.mask])
        if row[ground.mask] != 0:
            raise MetricAxiomError("d(U, U) != 0; not a metric", witness=(ground.members,))
        values, level_of, sizes = np.unique(row, return_inverse=True, return_counts=True)
        structure = LevelStructure(
            ground,
            tuple(Fraction(int(v), scale) for v in values),
            tuple(sizes.tolist()),
            sets=tuple(level_of.tolist()),
        )
    metric._level_cache[ground.mask] = structure
    return structure


def _signature_levels(metric: DistanceMetric, ground: Committee) -> tuple:
    """(values, sizes, cells) of a signature metric on the (x, y) grid, the
    same for every ground of k members: a set S with x = |S ∩ U| and
    y = |S ∖ U| is at distance g(k - x, y, x), and C(k, x) * C(m - k, y)
    sets share that cell."""
    m, k = metric.m, ground.k
    grid = [[metric._signature(k - x, y, x) for y in range(m - k + 1)] for x in range(k + 1)]
    if grid[k][0] != 0:
        raise MetricAxiomError("d(U, U) != 0; not a metric", witness=(ground.members,))
    values = sorted({v for row in grid for v in row})
    index = {v: t for t, v in enumerate(values)}
    cells = tuple(tuple(index[v] for v in row) for row in grid)
    sizes = [0] * len(values)
    outside = binomial_row(m - k)
    for x, row in enumerate(cells):
        for y, t in enumerate(row):
            sizes[t] += comb(k, x) * outside[y]
    return tuple(values), tuple(sizes), cells


def neighborhood_count(
    metric: DistanceMetric, ground: Committee, a: int, b: int, t: int
) -> int:
    """Number of sets containing a but not b within the t-th distance level."""
    m = metric.m
    check_sets(m)
    if not (0 <= a < m and 0 <= b < m) or a == b:
        raise PreconditionError(f"need two distinct alternatives in 0..{m - 1}, got {a} and {b}")
    levels = level_structure(metric, ground)
    if not 0 <= t <= levels.spn:
        raise PreconditionError(f"t={t} outside 0..{levels.spn}")
    sets = np.arange(1 << m)
    a_not_b = (sets >> a & 1) > (sets >> b & 1)
    return int(_ball_counts(levels, a_not_b[:, None])[t, 0])


def _ball_counts(levels: LevelStructure, marked) -> np.ndarray:
    """counts[t, j] = number of sets S within level t with marked[S, j].

    `marked` is a boolean (2^m, J) array; the counts of each level come
    from one bincount and are accumulated over the levels.
    """
    sets, cols = np.nonzero(marked)
    width = marked.shape[1]
    cells = np.asarray(levels.level_of)[sets] * width + cols
    counts = np.bincount(cells, minlength=len(levels.sizes) * width)
    return counts.reshape(-1, width).cumsum(axis=0)


class MetricPropertyCheck(NamedTuple):
    ok: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def deciding_committees(metric: DistanceMetric, k: int) -> tuple[list[int], list[int]]:
    """(grounds, committees): ascending k-committee masks whose pairs decide
    a property of all (ground, committee) pairs and hold its first failing
    pair in mask order; the grounds lead the committees. A table metric
    needs every committee as both. A signature metric, and each property of
    it, is unchanged by a relabelling of the alternatives: any ground
    relabels onto the first committee 2^k - 1, and a relabelling that fixes
    it maps every committee onto the smallest of its overlap class j,
    `first_rival(k, j)`.
    """
    m = metric.m
    if metric._signature is None:
        masks = committee_masks(m, k)
        return masks, masks
    check_k(m, k)
    masks = [(1 << k) - 1, *(first_rival(k, j) for j in reversed(overlap_classes(m, k)))]
    return masks[:1], masks


def is_majority_concentric(metric: DistanceMetric, k: int) -> MetricPropertyCheck:
    """Check the ball-count dominance property for every ground committee.

    For each k-committee U, member a, outsider b, and radius index t, the
    ball of radius delta_t around U must contain at least as many sets
    with a-but-not-b as with b-but-not-a. Witness on failure: (U, a, b, t),
    the first in (U, t, a, b) order. A signature metric is decided on the
    first committee alone (`deciding_committees`).
    """
    m = metric.m
    check_sets(m)
    sets = np.arange(1 << m)
    has = (sets[:, None] >> np.arange(m) & 1) == 1
    for umask in deciding_committees(metric, k)[0]:
        ground = Committee(AlternativeSet(umask, m), k)
        # N^t(a|b) - N^t(b|a) = (sets within level t holding a) - (those holding b)
        holding = _ball_counts(level_structure(metric, ground), has)
        members = [i for i in range(m) if umask >> i & 1]
        outsiders = [i for i in range(m) if not umask >> i & 1]
        worse = holding[:, members, None] < holding[:, None, outsiders]
        if worse.any():
            t, i, j = np.argwhere(worse)[0]
            return MetricPropertyCheck(False, (ground, members[i], outsiders[j], int(t)))
    return MetricPropertyCheck(True)


def _overlap_triples(metric: DistanceMetric, k: int, strict: bool) -> MetricPropertyCheck:
    m = metric.m
    check_sets(m)
    grounds, masks = deciding_committees(metric, k)
    dist, _ = metric.rows(masks)
    overlap = _signature_codes(masks, m) % (m + 1)  # |U∩S|
    for u, umask in enumerate(grounds):
        # first (V, S) with |U∩S| > |V∩S| (never V = U) and d(U,S) > d(V,S)
        farther = dist[u] >= dist if strict else dist[u] > dist
        bad = (overlap[u] > overlap) & farther
        if bad.any():
            v, s = divmod(int(np.argmax(bad)), 1 << m)
            witness = (
                Committee(AlternativeSet(umask, m), k),
                Committee(AlternativeSet(masks[v], m), k),
                AlternativeSet(s, m),
            )
            return MetricPropertyCheck(False, witness)
    return MetricPropertyCheck(True)


def is_natural(metric: DistanceMetric, k: int) -> MetricPropertyCheck:
    """Larger overlap never increases distance: |U∩S| > |V∩S| ⇒ d(U,S) ≤ d(V,S).

    Witness on failure: the first (U, V, S) in mask order. A signature
    metric is decided on the first U and one V per overlap class
    (`deciding_committees`)."""
    return _overlap_triples(metric, k, strict=False)


def is_similarity(metric: DistanceMetric, k: int) -> MetricPropertyCheck:
    """Larger overlap strictly decreases distance: |U∩S| > |V∩S| ⇒ d(U,S) < d(V,S).

    Witness and signature shortcut as in `is_natural`."""
    return _overlap_triples(metric, k, strict=True)


def is_alternative_independent(metric: DistanceMetric) -> MetricPropertyCheck:
    """Whether distance depends only on (|X\\Y|, |Y\\X|, |X|, |Y|).

    Witness on failure: two ordered pairs with equal signature but
    different distance. A signature metric is one by construction; a table
    metric is scanned on its full matrix, within MAX_MATRIX_CELLS.
    """
    m = metric.m
    if metric._signature is not None:
        return MetricPropertyCheck(True)
    check_matrix(m)
    n = 1 << m
    dist = metric.rows(range(n))[0]
    # (|X∖Y|, |Y∖X|, |X∩Y|) fixes (|X∖Y|, |Y∖X|, |X|, |Y|) and back; for
    # every ordered pair, the first pair in (x, y) order with its signature
    codes = _signature_codes(range(n), m)
    _, first, group = np.unique(codes.ravel(), return_index=True, return_inverse=True)
    seen = first[group]
    differs = dist.ravel() != dist.ravel()[seen]
    if differs.any():
        later = int(np.argmax(differs))
        pairs = (int(seen[later]), later)
        witness = tuple((AlternativeSet(f // n, m), AlternativeSet(f % n, m)) for f in pairs)
        return MetricPropertyCheck(False, witness)
    return MetricPropertyCheck(True)


# ---------------------------------------------------------------------------
# Random metric generation: every draw is a metric by construction, verified once.

def random_metric(
    m: int, seed, family: str = "table", monotone: bool = False, perturb: bool = True
) -> DistanceMetric:
    """Seeded random metric, axiom-verified before return.

    family "table": independent symmetric entries in [1, 2] (eighth-steps
    when `perturb`, else {1, 2}), so the triangle inequality holds; entries
    are alternative-dependent. A table metric, within MAX_MATRIX_CELLS.
    family "signature": a signature metric g(a, b, c) of the signature
    (|X\\Y|, |Y\\X|, |X∩Y|), hence alternative-independent, at m <= MAX_M.
    With `monotone` it is a random capped non-negative combination of
    set_difference, zelinka and trivial (non-decreasing in a and b, which
    also makes the metric natural); otherwise each cell a <= b, b > 0 draws
    a value in [1, 2], in cell order, and g(a, b, c) = g(b, a, c).
    """
    if family not in ("table", "signature"):
        raise ValueError(f"unknown family {family!r}")
    tag = f"m={m},seed={seed}"
    if family == "table":
        check_matrix(m)  # the axiom check holds the full matrix
        pairs = list(combinations(range(1 << m), 2))
        table = dict(zip(pairs, _unit_values(np.random.default_rng(seed), len(pairs), perturb)))
        metric = DistanceMetric(f"random_table({tag})", m, table=table)
    else:
        check_sets(m)  # the axiom check's Venn-region sizes
        signature = _random_signature(m, np.random.default_rng(seed), monotone, perturb)
        metric = DistanceMetric(f"random_signature({tag})", m, signature=signature)
    if not check_metric_axioms(metric):
        raise RuntimeError(f"{metric.name} is not a metric")
    return metric


def _unit_values(rng, count: int, perturb: bool) -> list[Fraction]:
    """`count` seeded values in [1, 2]: eighth-steps when `perturb`, else {1, 2}."""
    eighths = 8 + rng.integers(0, 9, size=count) if perturb else 8 * rng.integers(1, 3, size=count)
    values = [Fraction(i, 8) for i in range(17)]
    return [values[i] for i in eighths.tolist()]


def _random_signature(m, rng, monotone, perturb):
    if monotone:
        # w_sym * set_difference + w_max * zelinka + w_pos * trivial, not all
        # weights zero, optionally capped
        w_sym, w_max, w_pos = (Fraction(int(rng.integers(0, 4)), 2) for _ in range(3))
        if w_sym == w_max == w_pos == 0:
            w_pos = Fraction(1)
        cap = None
        if rng.integers(0, 2):
            cap = w_pos + w_sym + w_max + Fraction(int(rng.integers(1, 2 * m + 1)), 2)

        def signature(a, b, c):
            if a == b == 0:
                return Fraction(0)
            v = w_sym * (a + b) + w_max * max(a, b) + w_pos
            return min(v, cap) if cap is not None else v

        return signature
    # one value per cell a <= b with b > 0 and a + b + c <= m, in cell order
    cells = [
        (a, b, c) for a, b, c in product(range(m + 1), repeat=3) if a <= b and 0 < b <= m - a - c
    ]
    values = dict(zip(cells, _unit_values(rng, len(cells), perturb)))
    return lambda a, b, c: values.get((a, b, c) if a <= b else (b, a, c), Fraction(0))


# ---------------------------------------------------------------------------
# Taxonomy report.

class TaxonomyReport(NamedTuple):
    metric_name: str
    m: int
    k: int
    is_metric: bool
    is_majority_concentric: bool
    is_natural: bool
    is_similarity: bool
    is_alternative_independent: bool
    witnesses: dict

    def flags(self) -> dict:
        return {
            "is_metric": self.is_metric,
            "is_majority_concentric": self.is_majority_concentric,
            "is_natural": self.is_natural,
            "is_similarity": self.is_similarity,
            "is_alternative_independent": self.is_alternative_independent,
        }


def taxonomy_report(metric: DistanceMetric, k: int) -> TaxonomyReport:
    """Run all metric classifiers and collect counterexample witnesses.

    A distance that fails the axioms gets a report too. Where d(U, U) != 0
    on a committee U, `is_majority_concentric` has no level structure to
    run on, and fails with the axiom witness, (axiom, sets).
    """
    axioms = check_metric_axioms(metric)
    checks = {"is_metric": MetricPropertyCheck(axioms.ok, (axioms.axiom, axioms.witness))}
    try:
        checks["is_majority_concentric"] = is_majority_concentric(metric, k)
    except MetricAxiomError:  # only a non-metric has no level structure
        checks["is_majority_concentric"] = checks["is_metric"]
    checks["is_natural"] = is_natural(metric, k)
    checks["is_similarity"] = is_similarity(metric, k)
    checks["is_alternative_independent"] = is_alternative_independent(metric)
    witnesses = {flag: check.witness for flag, check in checks.items() if not check}
    return TaxonomyReport(
        metric.name, metric.m, k, *(check.ok for check in checks.values()), witnesses
    )


# ---------------------------------------------------------------------------
# Custom metric file format:
#   {"m": 3, "alternatives": ["a","b","c"],            # alternatives optional
#    "default": "2",                                   # optional
#    "entries": [{"x": ["a"], "y": ["b"], "d": "1"}, ...]}
# Symmetric counterparts may be omitted; the diagonal is implicit. Without
# a default every pair is listed; with one, only the pairs at another distance.

def metric_to_json(metric: DistanceMetric, universe: Universe | None = None) -> dict:
    """A builtin as its kind; any other metric as its custom table, which a
    signature metric lists pair by pair, within MAX_MATRIX_CELLS."""
    universe = universe or default_universe(metric.m)
    table, default = metric._table, metric._default
    if table is None:
        if metric._signature is _SIGNATURES.get(metric.name):
            return {"kind": metric.name, "m": metric.m}
        check_matrix(metric.m)
        table = {(a, b): metric.d(a, b) for a, b in combinations(range(1 << metric.m), 2)}
    # one label list per set and one "p/q" string per distinct value
    names = Memo(lambda mask: list(AlternativeSet(mask, metric.m).labels(universe)))
    fracs = Memo(frac_str)
    entries = [
        {"x": names[a], "y": names[b], "d": fracs[value]}
        for (a, b), value in sorted(table.items())
    ]
    doc = {
        "kind": "custom",
        "name": metric.name,
        "m": metric.m,
        "alternatives": list(universe.names),
        "entries": entries,
    }
    if default is not None:
        doc["default"] = frac_str(default)
    return doc


def metric_from_json(doc: dict, m: int | None = None) -> DistanceMetric:
    """The metric of a metric document; given `m`, a document over another
    number of alternatives is refused before anything is built."""
    try:
        kind = doc.get("kind", "custom")
        size = int(doc["m"])
        if kind == "custom":
            check_matrix(size)  # a table metric is held as the full matrix
        if m is not None and size != m:
            raise DomainMismatchError(f"metric file has m={size}; need m={m}")
        if kind != "custom":
            return make_metric(kind, size)
        default = doc.get("default")
        if default is not None:
            default = parse_frac(str(default))
        names = doc.get("alternatives")
        universe = Universe(tuple(names)) if names else default_universe(size)
        if universe.m != size:
            raise ProfileParseError("alternatives list does not match m")
        # each distinct label list and "d" text is read once; the first
        # bad one raises as it would have alone
        masks = Memo(lambda names: universe.set_of(names).mask)
        values = Memo(parse_frac)
        table = {}
        for row in doc["entries"]:
            x = _mask_of(row["x"], masks)
            y = _mask_of(row["y"], masks)
            table[(x, y)] = values[str(row["d"])]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProfileParseError(f"bad metric file: {exc}") from None
    return make_metric(
        "custom", size, table=table, default=default, name=doc.get("name", "custom")
    )


def _mask_of(names, masks: Memo) -> int:
    """`masks[tuple(names)]`; a value that is no hashable sequence goes
    to `set_of` uncached, so that it fails there as it always did."""
    try:
        return masks[tuple(names)]
    except TypeError:
        return masks.f(names)


def load_metric_file(path, m: int | None = None) -> DistanceMetric:
    return metric_from_json(read_json(path, "metric"), m)
