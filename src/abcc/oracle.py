"""Exact expectation analysis and the robustness decision procedure.

The key reduction: for a fixed (ground, rival) pair, the expected score
gap under any level model is a linear functional sum(c_t * p_t) of the
level probabilities, where c_t aggregates the per-vote score gaps over
the sets at distance level t. Summation by parts turns this into
sum(E_j * e_j) over the prefix sums E_j and the non-negative decrements
e_j = p_j - p_{j+1}; since every strictly monotone model has e_j > 0
below the top level, the sign pattern of the prefix sums decides
robustness outright:

* every prefix non-negative and some positive below the last level:
  the gap is positive for every admissible model;
* some prefix negative: concentrating mass up to that level (a vertex of
  the monotone polytope, staggered back to strict decrease) realizes a
  negative gap;
* all prefixes zero below the last level: the gap is zero-mean under
  every strict model, so a unique-winner event cannot reach probability
  one (ties if the gap variable is identically zero, a symmetric-sum
  argument otherwise).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from math import comb
from typing import NamedTuple

import numpy as np

from . import metrics, noise, rules
from .core import (
    MAX_PAIR_ROWS,
    AlternativeSet,
    Committee,
    committee_masks,
    frac_str,
)
from .errors import NotAccurateError, PreconditionError, SizeMismatchError

ACCURATE = "accurate_in_limit"
NOT_ACCURATE = "not_accurate"
INCONCLUSIVE = "inconclusive"

ROBUST = "robust"
NOT_ROBUST = "not_robust"
DEGENERATE_NOT_ROBUST = "degenerate_not_robust"


def expected_gap(
    rule: rules.AbccRule, model: noise.NoiseModel, ground: Committee, rival: Committee
) -> Fraction:
    """Exact E[sc(ground, S) - sc(rival, S)] under the model's distribution."""
    if model.ground != ground:
        raise PreconditionError("model ground truth differs from the given committee")
    model.check_rule(rule)
    if rival.k != rule.k or rival.m != rule.m:
        raise PreconditionError("committees do not match the rule's (m, k)")
    return noise.expected_gaps(rule, model, ground.mask, [rival.mask])[0]


class AccuracyReport(NamedTuple):
    status: str
    ground: Committee
    gaps: dict  # rival Committee -> exact gap
    rival_status: dict  # rival Committee -> "positive"|"negative"|"zero_tie"|"zero_mean"

    def worst(self) -> tuple[Committee, Fraction]:
        rival = min(self.gaps, key=lambda c: (self.gaps[c], c.mask))
        return rival, self.gaps[rival]


def accuracy_classify(rule: rules.AbccRule, model: noise.NoiseModel) -> AccuracyReport:
    """Classify whether the rule recovers the model's ground truth in the limit.

    Accurate iff every rival committee has a strictly positive expected
    gap. A zero gap already fails: the recovery event then has limiting
    probability at most 1/2 (a permanent tie when the gap variable is
    identically zero on the support, a zero-mean fluctuation otherwise).
    """
    model.check_rule(rule)
    ground = model.ground
    masks = committee_masks(rule.m, rule.k)
    rivals = [cmask for cmask in masks if cmask != ground.mask]
    rows = zip(rivals, noise.expected_gaps(rule, model, ground.mask, rivals))
    gaps = {Committee(AlternativeSet(cmask, rule.m), rule.k): gap for cmask, gap in rows}
    # the zero gaps vote by vote on the support. On a grid, the rivals of an
    # overlap class move together: iff the class is among the rule's
    # `moving_classes` on the cells of a level of non-zero probability.
    # Otherwise one sweep scores the ground and every zero-gap rival on each
    # support vote.
    zero = [rival.mask for rival, gap in gaps.items() if not gap]
    moving = set()
    if zero:
        levels, probs = model.level_form()
        if levels.cells is not None:
            on = [[probs[t] != 0 for t in row] for row in levels.cells]
            classes = rules.moving_classes(rule, on)
            moving = {vmask for vmask in zero if (ground.mask & vmask).bit_count() in classes}
        else:
            table, _ = rules.integer_table(rule, 1)
            on_support = np.array([q != 0 for q in probs])[np.asarray(levels.level_of)]
            support = np.flatnonzero(on_support)
            differs = np.zeros(len(zero), dtype=bool)
            for _, scores in rules.score_blocks(table, rule.m, [ground.mask, *zero], support):
                differs |= (scores[1:] != scores[0]).any(axis=1)
            moving = {vmask for vmask, moves in zip(zero, differs.tolist()) if moves}
    rival_status = {
        rival: ("positive" if gap > 0 else "negative") if gap
        else "zero_mean" if rival.mask in moving else "zero_tie"
        for rival, gap in gaps.items()
    }
    status = ACCURATE if all(gap > 0 for gap in gaps.values()) else NOT_ACCURATE
    return AccuracyReport(status, ground, gaps, rival_status)


# ---------------------------------------------------------------------------
# (ground, rival) bijections.

class UVBijection(NamedTuple):
    """Pointwise swap of ground \\ rival with rival \\ ground, fixing the rest.

    The induced set map preserves cardinality and swaps the two overlap
    counts: |U ∩ mu(S)| = |V ∩ S| and |V ∩ mu(S)| = |U ∩ S|.
    """

    ground: Committee
    rival: Committee
    point_map: tuple[int, ...]

    def map_mask(self, mask: int) -> int:
        out = 0
        for i, target in enumerate(self.point_map):
            if mask >> i & 1:
                out |= 1 << target
        return out


def uv_bijection(ground: Committee, rival: Committee) -> UVBijection:
    """Canonical bijection matching the two one-sided differences in index order."""
    if ground.k != rival.k or ground.m != rival.m:
        raise SizeMismatchError("committees must have equal size and universe")
    m = ground.m
    only_u = [i for i in range(m) if ground.mask >> i & 1 and not rival.mask >> i & 1]
    only_v = [i for i in range(m) if rival.mask >> i & 1 and not ground.mask >> i & 1]
    point_map = list(range(m))
    for a, b in zip(only_u, only_v):
        point_map[a], point_map[b] = b, a
    return UVBijection(ground, rival, tuple(point_map))


# ---------------------------------------------------------------------------
# Level gap coefficients and prefix sums.

class GapAnalysis(NamedTuple):
    """Per-level gap coefficients c_t and their prefix sums for one pair."""

    rule_name: str
    metric_name: str
    ground: Committee
    rival: Committee
    levels: metrics.LevelStructure
    coefficients: tuple[Fraction, ...]
    prefix: tuple[Fraction, ...]

    def gap_for_level_probs(self, probs) -> Fraction:
        """sum(c_t * p_t) for explicit level probabilities."""
        probs = [Fraction(q) for q in probs]
        if len(probs) != len(self.coefficients):
            raise PreconditionError("probability vector does not match level count")
        return sum(
            (c * q for c, q in zip(self.coefficients, probs)), start=Fraction(0)
        )

    def gap_by_parts(self, probs) -> Fraction:
        """sum(E_j * e_j) with e_j = p_j - p_{j+1} (e_last = p_last)."""
        probs = [Fraction(q) for q in probs]
        decrements = [
            probs[j] - probs[j + 1] for j in range(len(probs) - 1)
        ] + [probs[-1]]
        return sum(
            (e * ej for e, ej in zip(self.prefix, decrements)), start=Fraction(0)
        )


def _level_gaps(rule, levels, rivals):
    """Level gap coefficients c_t of the ground against each rival, one row
    per rival, and their prefix sums E_j, both as integers over `scale`."""
    coeffs, scale = rules.level_gap_rows(rule, levels, levels.ground.mask, rivals)
    return coeffs, np.cumsum(coeffs, axis=1), scale


def _fractions(row, scale) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(v), scale) for v in row)


def gap_analysis(
    rule: rules.AbccRule, metric: metrics.DistanceMetric, ground: Committee, rival: Committee
) -> GapAnalysis:
    """Exact level coefficients, prefix sums, and both gap evaluators.

    On construction, the direct and summation-by-parts evaluations are
    cross-checked on one seeded random strict model; a mismatch would be
    an internal bug, not a property of the inputs.
    """
    levels = metrics.level_structure(metric, ground)
    coeffs, prefix, scale = _level_gaps(rule, levels, [rival.mask])
    analysis = GapAnalysis(
        rule.name, metric.name, ground, rival, levels,
        _fractions(coeffs[0], scale), _fractions(prefix[0], scale),
    )
    probs = _random_strict_probs(levels, np.random.default_rng(271828))
    direct = analysis.gap_for_level_probs(probs)
    by_parts = analysis.gap_by_parts(probs)
    if direct != by_parts:
        raise RuntimeError(
            f"summation-by-parts mismatch: {frac_str(direct)} != {frac_str(by_parts)}"
        )
    return analysis


def _random_strict_probs(levels: metrics.LevelStructure, rng) -> list[Fraction]:
    # strictly decreasing positive integers, normalized exactly
    increments = rng.integers(1, 8, size=levels.spn + 1)
    weights = list(np.cumsum(increments)[::-1])
    total = sum(int(w) * size for w, size in zip(weights, levels.sizes))
    return [Fraction(int(w), total) for w in weights]


# ---------------------------------------------------------------------------
# The exact robustness verdict.

class PairSummary(NamedTuple):
    ground: Committee
    rival: Committee
    min_prefix: Fraction
    positive_below_last: bool
    degenerate: bool


class ClassSummary(NamedTuple):
    """The summary that every ordered pair (U, V) with |U ∩ V| = j shares."""

    j: int
    pairs: int
    min_prefix: Fraction
    positive_below_last: bool
    degenerate: bool


class NotRobustWitness(NamedTuple):
    ground: Committee
    rival: Committee
    level_index: int
    model: noise.NoiseModel
    gap: Fraction


class DegenerateWitness(NamedTuple):
    ground: Committee
    rival: Committee
    model: noise.NoiseModel
    identically_zero: bool


class RobustnessVerdict(NamedTuple):
    """`rows` holds one PairSummary per ordered committee pair (table
    metrics) or one ClassSummary per overlap class (signature metrics)."""

    status: str
    rule_name: str
    metric_name: str
    m: int
    k: int
    witness: NotRobustWitness | DegenerateWitness | None
    rows: tuple[PairSummary, ...] | tuple[ClassSummary, ...]

    @property
    def pair_summaries(self) -> tuple[PairSummary, ...]:
        """One row per ordered pair, ground-major in mask order; a class row
        stands for each pair of its class."""
        if not self.rows or isinstance(self.rows[0], PairSummary):
            return self.rows
        by_overlap = {c.j: c[2:] for c in self.rows}
        masks = committee_masks(self.m, self.k)
        committees = [Committee(AlternativeSet(mask, self.m), self.k) for mask in masks]
        return tuple(
            PairSummary(u, v, *by_overlap[(u.mask & v.mask).bit_count()])
            for u in committees
            for v in committees
            if v is not u
        )


def robustness_verdict(rule: rules.AbccRule, metric: metrics.DistanceMetric) -> RobustnessVerdict:
    """Decide accuracy in the limit over all monotone models of the metric.

    Robust iff every ordered committee pair has all prefix sums E_j >= 0
    with some E_j > 0 below the last level. A negative prefix yields a
    NotRobust witness model (verified to give a negative exact gap); pairs
    whose prefixes vanish below the last level yield the degenerate status
    with a strict zero-gap model. The witness is the first such pair in
    (ground, rival) mask order, NOT_ROBUST pairs before degenerate ones.

    A table metric is decided pair by pair. A signature metric is decided
    on the overlap classes j = |U ∩ V|, whose pairs share their level gap
    coefficients: one row per class, from the pairs of `deciding_committees`,
    the first committee against the smallest rival of each class, which
    hold the first failing pair of a pair-by-pair sweep.
    """
    if rule.m != metric.m:
        raise PreconditionError("rule and metric universe sizes differ")
    m, k = rule.m, rule.k
    grounds, masks = metrics.deciding_committees(metric, k)
    committees = {mask: Committee(AlternativeSet(mask, m), k) for mask in masks}
    fractions = functools.cache(Fraction)  # one per distinct (min_prefix, scale)
    rows = []
    negative = degenerate = None  # the first (ground, rival) of each failure
    for umask in grounds:
        ground = committees[umask]
        levels = metrics.level_structure(metric, ground)
        by_class = levels.cells is not None  # a signature metric's grid
        coeffs, prefix, scale = _level_gaps(rule, levels, masks)
        lowest = prefix.min(axis=1).tolist()
        positive = (prefix[:, : levels.spn] > 0).any(axis=1).tolist()
        for i, vmask in enumerate(masks):
            if vmask == umask:
                continue
            flat = lowest[i] >= 0 and not positive[i]
            summary = fractions(lowest[i], scale), positive[i], flat
            j = (umask & vmask).bit_count()
            rows.append(ClassSummary(j, comb(m, k) * comb(k, j) * comb(m - k, k - j), *summary)
                        if by_class else PairSummary(ground, committees[vmask], *summary))
            if lowest[i] < 0 and negative is None:
                t = next(t for t, e in enumerate(prefix[i]) if e < 0)
                negative = ground, committees[vmask], t, _fractions(coeffs[i], scale)
            elif flat and degenerate is None:
                degenerate = ground, committees[vmask]
    if by_class:
        rows.reverse()  # ascending j
        if comb(m, k) * (comb(m, k) - 1) <= MAX_PAIR_ROWS:
            # a verdict that `verdict_to_json` lists pair by pair looks up each
            # ground's level structure (one object on the shared grid), as the
            # table sweep does, so a traced run (bench/shim.py) counts one per ground
            for mask in committee_masks(m, k)[1:]:
                metrics.level_structure(metric, Committee(AlternativeSet(mask, m), k))
    if negative is not None:
        ground, rival, t, coeffs = negative
        model, gap = noise.negative_gap_model(metric, ground, coeffs, t)
        witness = NotRobustWitness(ground, rival, t, model, gap)
        status = NOT_ROBUST
    elif degenerate is not None:
        ground, rival = degenerate
        # whether the per-vote gap variable itself vanishes everywhere
        # (permanent tie) or only its level aggregates cancel: a property
        # of the rule on the pair's overlap class, whatever the metric
        j = (ground.mask & rival.mask).bit_count()
        identically_zero = j not in rules.moving_classes(rule)
        # strict decrease with zero mass on the farthest level: the gap of a
        # fully-cancelling pair is exactly zero under this model
        model = noise.staggered_level_model(metric, ground, zero_tail=True)
        witness = DegenerateWitness(ground, rival, model, identically_zero)
        status = DEGENERATE_NOT_ROBUST
    else:
        witness = None
        status = ROBUST
    return RobustnessVerdict(status, rule.name, metric.name, m, k, witness, tuple(rows))


# ---------------------------------------------------------------------------
# Sample-size bound from the concentration argument.

class SampleSizeBound(NamedTuple):
    n: int
    mu_min: Fraction
    a_prime: Fraction
    b_prime: Fraction
    worst_rival: Committee


def sample_size_bound(rule: rules.AbccRule, model: noise.NoiseModel, eps) -> SampleSizeBound:
    """Vote count guaranteeing unique recovery with probability >= 1 - eps.

    n = ceil((b' - a')^2 / (2 mu_min^2) * ln(2 m^k / eps)), where [a', b']
    bounds the per-vote score difference f(x1, y) - f(x2, y) over same-y
    feasible pairs and mu_min is the smallest expected gap over rivals.
    eps is taken exactly (a float as its binary value), and the ceiling
    is decided between rational bounds on the logarithm.
    """
    try:
        exact_eps = Fraction(eps)
    except (TypeError, ValueError, OverflowError):
        raise PreconditionError(f"eps must be a rational in (0, 1), got {eps!r}") from None
    if not 0 < exact_eps < 1:
        raise PreconditionError(f"eps must be in (0, 1), got {eps}")
    if rule.m <= rule.k:
        raise PreconditionError("need m > k so a rival committee exists")
    report = accuracy_classify(rule, model)
    if report.status != ACCURATE:
        raise NotAccurateError("rule is not accurate in the limit for this model")
    worst_rival, mu_min = report.worst()
    by_y: dict[int, list[Fraction]] = {}
    for (x, y), value in rule.table.items():
        by_y.setdefault(y, []).append(value)
    b_prime = max(max(vals) - min(vals) for vals in by_y.values())
    a_prime = -b_prime
    coefficient = (b_prime - a_prime) ** 2 / (2 * mu_min**2)
    x = 2 * rule.m**rule.k / exact_eps
    terms = 8
    while True:  # ln x is irrational, so tight enough bounds share one ceiling
        n, upper = (math.ceil(coefficient * bound) for bound in _ln_bounds(x, terms))
        if n == upper:
            return SampleSizeBound(n, mu_min, a_prime, b_prime, worst_rival)
        terms *= 2


def _ln_bounds(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Rationals lo < ln x < hi for a rational x > 1.

    x = 2^j r with 1 <= r < 2, so ln x = j ln 2 + ln r, and ln y = 2 atanh z
    for z = (y - 1)/(y + 1) in [0, 1/3]: the series sum z^(2i+1)/(2i+1)
    to `terms` terms, whose tail is at most z^(2N+1)/((2N+1)(1 - z^2)).
    """
    j = x.numerator.bit_length() - x.denominator.bit_length()
    if x < 2**j:
        j -= 1
    lo = hi = Fraction(0)
    for y, times in ((Fraction(2), j), (x / 2**j, 1)):
        z = (y - 1) / (y + 1)
        power, head = z, Fraction(0)
        for i in range(terms):
            head += power / (2 * i + 1)
            power *= z * z
        lo += 2 * times * head
        hi += 2 * times * (head + power / ((2 * terms + 1) * (1 - z * z)))
    return lo, hi


# ---------------------------------------------------------------------------
# Verdict serialization (exact rationals as "p/q" strings).

def verdict_to_json(verdict: RobustnessVerdict, universe) -> dict:
    """The verdict document; rows that name the same committee share its
    label list, and equal rationals share their "p/q" string. A signature
    verdict over more than MAX_PAIR_ROWS pairs lists its class rows instead."""
    names = functools.cache(lambda mask: list(AlternativeSet(mask, verdict.m).labels(universe)))
    fracs = functools.cache(frac_str)
    doc = {
        "status": verdict.status,
        "rule": verdict.rule_name,
        "metric": verdict.metric_name,
        "m": verdict.m,
        "k": verdict.k,
        "witness": None,
    }

    def summary(row):  # the fields that pair and class rows share
        return {
            "min_prefix": fracs(row.min_prefix),
            "positive_below_last": row.positive_below_last,
            "degenerate": row.degenerate,
        }

    classes = [c for c in verdict.rows if isinstance(c, ClassSummary)]
    if sum(c.pairs for c in classes) > MAX_PAIR_ROWS:
        doc["per_class_summary"] = [{"j": c.j, "pairs": c.pairs, **summary(c)} for c in classes]
    else:
        doc["per_pair_summary"] = [
            {"ground": names(p.ground.mask), "rival": names(p.rival.mask), **summary(p)}
            for p in verdict.pair_summaries
        ]
    w = verdict.witness
    if isinstance(w, NotRobustWitness):
        doc["witness"] = {
            "ground": names(w.ground.mask),
            "rival": names(w.rival.mask),
            "level_index": w.level_index,
            "gap": frac_str(w.gap),
            "model": noise.model_to_json(w.model),
        }
    elif isinstance(w, DegenerateWitness):
        doc["witness"] = {
            "ground": names(w.ground.mask),
            "rival": names(w.rival.mask),
            "identically_zero": w.identically_zero,
            "gap": "0",
            "model": noise.model_to_json(w.model),
        }
    return doc
