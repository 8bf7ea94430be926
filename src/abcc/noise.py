"""Noise models over committees and the adversarial constructions.

Two model forms exist. The product form flips each alternative's
membership independently and supports sampling at any m; its exact
probabilities decay geometrically in the symmetric-difference distance
from the ground committee. Level-table models assign one exact
probability per distance level of an arbitrary metric; a signature
metric's are built on its level grid at any m, but sampling them, like
every table metric's, needs the level of each of the 2^m sets, so it is
capped at desk scale. Expectations run on the level form, where a
product model is the `set_difference` level model.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import metrics, rules
from .core import (  # RNG_SCHEME is re-exported
    DRAW_BLOCK_CELLS,
    RNG_SCHEME,
    AlternativeSet,
    Check,
    Committee,
    Frozen,
    Profile,
    Universe,
    check_matrix,
    default_universe,
    frac_str,
    parse_frac,
    read_json,
    scaled_integers,
)
from .errors import (
    DomainMismatchError,
    InvalidNoiseParamError,
    NoCounterexampleError,
    NotMonotonicError,
    NotNormalizedError,
    PreconditionError,
    ProfileParseError,
)


class NoiseModel(Frozen):
    """Distribution over all subsets conditioned on a ground committee.
    Equality and hashing see the level partition (the grid's `cells`, or a
    table metric's `sets`), not `metric` or the distance values."""

    _fields = ("kind", "universe", "ground", "p", "metric", "level_probs", "levels")

    def __init__(
        self,
        kind: str,  # "product" | "level"
        universe: Universe,
        ground: Committee,
        p: Fraction | None = None,
        metric: metrics.DistanceMetric | None = None,
        level_probs: tuple[Fraction, ...] | None = None,
        levels: metrics.LevelStructure | None = None,
    ):
        vars(self).update(
            kind=kind, universe=universe, ground=ground, p=p,
            metric=metric, level_probs=level_probs, levels=levels,
        )

    def _values(self):  # the partition of `levels` in place of `metric` and `levels`
        levels = self.levels
        partition = levels and (levels.sets if levels.cells is None else levels.cells)
        return self.kind, self.universe, self.ground, self.p, self.level_probs, partition

    __reduce__ = object.__reduce__  # a copy keeps every field, not only _values()

    @property
    def m(self) -> int:
        return self.ground.m

    def check_rule(self, rule: rules.AbccRule) -> None:
        """Refuse a rule for another number of alternatives or committee size."""
        if (self.m, self.ground.k) != (rule.m, rule.k):
            raise PreconditionError(
                f"model has m={self.m}, k={self.ground.k}; rule has m={rule.m}, k={rule.k}"
            )

    @property
    def zero_tail(self) -> bool:
        """Whether the farthest level carries zero probability (admitted, flagged)."""
        return self.kind == "level" and self.level_probs[-1] == 0

    def level_form(self) -> tuple[metrics.LevelStructure, tuple[Fraction, ...]]:
        """(levels, probs): each set at level t has probability probs[t]. A
        product model is the level model of `set_difference`: its level d
        holds the sets at distance d = 0..m, each with p^(m-d) * (1-p)^d."""
        if self.kind == "level":
            return self.levels, self.level_probs
        return self._product_levels

    @functools.cached_property
    def _product_levels(self) -> tuple[metrics.LevelStructure, tuple[Fraction, ...]]:
        m, p = self.m, self.p
        levels = metrics.level_structure(metrics.make_metric("set_difference", m), self.ground)
        return levels, tuple(p ** (m - d) * (1 - p) ** d for d in range(m + 1))


def make_mp(p, universe: Universe, ground: Committee) -> NoiseModel:
    """Product model: keep each ground member with probability p, include
    each outsider with probability 1-p. Requires p in (1/2, 1]."""
    p = Fraction(p)
    if not Fraction(1, 2) < p <= 1:
        raise InvalidNoiseParamError(f"p must be in (1/2, 1], got {frac_str(p)}")
    if ground.m != universe.m:
        raise PreconditionError("ground committee does not match universe")
    return NoiseModel("product", universe, ground, p=p)


def make_level_model(
    metric: metrics.DistanceMetric,
    ground: Committee,
    level_probs,
    universe: Universe | None = None,
) -> NoiseModel:
    """Model assigning probability level_probs[t] to every set at level t.

    Validates strict decrease across levels (the farthest level may be 0)
    and exact normalization against the level sizes.
    """
    universe = universe or default_universe(metric.m)
    levels = metrics.level_structure(metric, ground)
    probs = tuple(Fraction(q) for q in level_probs)
    if len(probs) != levels.spn + 1:
        raise PreconditionError(
            f"need {levels.spn + 1} level probabilities, got {len(probs)}"
        )
    if probs[-1] < 0:
        raise NotMonotonicError("probabilities must be non-negative")
    for t in range(levels.spn):
        if probs[t] <= probs[t + 1]:
            raise NotMonotonicError(
                f"p_{t}={frac_str(probs[t])} must strictly exceed "
                f"p_{t + 1}={frac_str(probs[t + 1])}"
            )
    total = sum(
        (q * size for q, size in zip(probs, levels.sizes)), start=Fraction(0)
    )
    if total != 1:
        raise NotNormalizedError(total - 1)
    return NoiseModel(
        "level", universe, ground, metric=metric, level_probs=probs, levels=levels
    )


def staggered_level_model(
    metric: metrics.DistanceMetric,
    ground: Committee,
    universe: Universe | None = None,
    zero_tail: bool = False,
) -> NoiseModel:
    """Canonical strict model with linearly decreasing level probabilities."""
    levels = metrics.level_structure(metric, ground)
    s = levels.spn
    weights = [s + 1 - t for t in range(s + 1)] if not zero_tail else [s - t for t in range(s + 1)]
    if zero_tail and s == 0:
        raise PreconditionError("cannot zero the only level")
    total = sum(w * size for w, size in zip(weights, levels.sizes))
    return make_level_model(
        metric, ground, [Fraction(w, total) for w in weights], universe
    )


def audit_d_monotonic(model: NoiseModel, metric: metrics.DistanceMetric | None = None) -> Check:
    """Pairwise audit of the strict-iff condition.

    Checks Pr[S1|U] > Pr[S2|U] exactly when d(U, S1) < d(U, S2) over all
    ordered pairs of subsets. By default d is the model's own metric, and
    a product model's is the symmetric-difference metric. The witness is
    the first pair of sets, in distance order, that breaks it.
    """
    levels, level_probs = model.level_form()
    level_of = np.asarray(levels.level_of)
    probs = scaled_integers(level_probs)[0][level_of]
    # a level index ranks the distances of its sets, so it can stand for them
    dist = level_of if metric is None else metric.rows([model.ground.mask])[0][0]
    # Pairwise iff-condition, checked on the sorted-by-distance order:
    # probability must be constant within a distance class and strictly
    # decreasing across classes. Equivalent to the all-pairs comparison.
    order = np.argsort(dist, kind="stable")
    dist, probs = dist[order], probs[order]
    bad = np.where(dist[:-1] == dist[1:], probs[:-1] != probs[1:], probs[:-1] <= probs[1:])
    if bad.any():
        i = int(np.argmax(bad))
        return Check(False, tuple(AlternativeSet(int(s), model.m) for s in order[i : i + 2]))
    return Check(True)


def expected_gaps(rule: rules.AbccRule, model: NoiseModel, umask: int, vmasks) -> list[Fraction]:
    """Exact E[f(U, S) - f(V_i, S)] per rival mask V_i, S drawn from the
    model: its level gap rows weighed by the level probabilities."""
    levels, probs = model.level_form()
    coeffs, scale = rules.level_gap_rows(rule, levels, umask, vmasks)
    weights, den = scaled_integers(probs)
    totals = coeffs.astype(object) @ weights.astype(object)
    return [Fraction(int(total), scale * den) for total in totals]


# ---------------------------------------------------------------------------
# Sampling.

def sample_vote_masks(model: NoiseModel, n: int, rng: np.random.Generator):
    """Draw n i.i.d. vote masks, as an int64 array (a list of Python ints
    past m = 62). Product models avoid the 2^m table. The uniforms are
    drawn DRAW_BLOCK_CELLS vote x alternative cells at a time, and each
    block is turned into masks before the next; a Generator's stream is
    sequential, so the masks are those of one draw of all the uniforms."""
    if n < 0:
        raise PreconditionError("n must be non-negative")
    m = model.m
    if model.kind == "product":
        keep, gmask = float(model.p), model.ground.mask
        thresholds = np.array([keep if gmask >> i & 1 else 1.0 - keep for i in range(m)])
        dtype = np.int64 if m <= 62 else object
        weights = np.array([1 << i for i in range(m)], dtype=dtype)

        def draw(votes):
            return (rng.random((votes, m)) < thresholds) @ weights
    else:
        levels, probs = model.level_form()
        cumulative = np.cumsum(np.array([float(q) for q in probs])[np.asarray(levels.level_of)])
        cumulative[-1] = 1.0  # guard against float round-off at the top
        dtype = np.int64

        def draw(votes):
            return np.searchsorted(cumulative, rng.random(votes), side="right")

    masks = np.empty(n, dtype=dtype)
    step = max(1, DRAW_BLOCK_CELLS // m)
    for lo in range(0, n, step):
        masks[lo : lo + step] = draw(min(step, n - lo))
    return masks if dtype is np.int64 else masks.tolist()


def sample_profile(model: NoiseModel, n: int, seed) -> Profile:
    """n i.i.d. votes from the model; deterministic for a given seed."""
    masks = np.asarray(sample_vote_masks(model, n, np.random.default_rng(seed))).tolist()
    sets = {mask: AlternativeSet(mask, model.m) for mask in set(masks)}
    return Profile(tuple(map(sets.__getitem__, masks)))


# ---------------------------------------------------------------------------
# Adversarial constructions.

class CounterexamplePackage(NamedTuple):
    """A metric + model under which the rule prefers a rival to the ground truth."""

    metric: metrics.DistanceMetric
    model: NoiseModel
    ground: Committee
    rival: Committee
    expected_gap: Fraction
    jump: tuple[int, int]
    delta: Fraction


def negative_gap_model(
    metric: metrics.DistanceMetric,
    ground: Committee,
    coeffs,
    t: int,
) -> tuple[NoiseModel, Fraction]:
    """(model, gap): a strict level model whose gap sum(c_j * p_j) over the
    level gap coefficients `coeffs` of a pair is negative, given that their
    prefix sum through level t is negative.

    The vertex of the monotone polytope at level t (equal mass on levels
    0..t, none beyond) has gap prefix_t / |levels 0..t| < 0; a linear
    stagger small enough to keep that sign restores strict decrease. The
    exact gap of the resulting model is recomputed and checked before
    return.
    """
    levels = metrics.level_structure(metric, ground)
    s = levels.spn
    vertex_mass = Fraction(1, sum(levels.sizes[: t + 1]))
    vertex_gap = sum(coeffs[: t + 1], start=Fraction(0)) * vertex_mass
    eta = -vertex_gap / (4 * (1 << metric.m) * max(abs(c) for c in coeffs) + 1)
    raw = [
        (vertex_mass if j <= t else 0) + eta * Fraction(s + 1 - j, s + 1) for j in range(s + 1)
    ]
    scale = sum((Fraction(size) * q for size, q in zip(levels.sizes, raw)), Fraction(0))
    probs = [q / scale for q in raw]
    model = make_level_model(metric, ground, probs)
    gap = sum((c * q for c, q in zip(coeffs, probs)), start=Fraction(0))
    if gap >= 0:
        raise RuntimeError("witness stagger failed to preserve the negative gap")
    return model, gap


def jump_counterexample(rule: rules.AbccRule) -> CounterexamplePackage:
    """Adversarial distance metric and model defeating any rule with a
    score jump below the top cell.

    Finds the first feasible (x*, y*) != (k, k) with f(x*, y*) > f(x*-1, y*),
    pins distances d(U,V) = d(U,W) = 1 with every other distance 2 (a
    table of two entries and a default), and gives the three levels the
    probabilities (1/3, 1/3 - delta, 2 delta / (2^m - 3)). The exact gap
    for the rival V is linear in delta and equals -J/3 < 0 at delta = 0,
    with J = f(x*, y*) - f(x*-1, y*), so halving delta from 1/(6 (2^m - 1))
    on the pair's three level coefficients ends with a negative gap.

    Raises
    ------
    NoCounterexampleError
        When no such jump exists (the modal-committee table), in which
        case no defeating construction exists at all.
    """
    m, k = rule.m, rule.k
    check_matrix(m)  # the metric's rows come from its full matrix
    if m <= k:
        raise PreconditionError("need m > k so a rival committee exists")
    jump = None
    for y in range(m + 1):
        for x in range(max(k + y - m, 0), min(y, k) + 1):
            if (x, y) == (k, k) or (x - 1, y) not in rule.table:
                continue
            if rule.table[(x, y)] > rule.table[(x - 1, y)]:
                jump = (x, y)
                break
        if jump:
            break
    if jump is None:
        raise NoCounterexampleError(
            f"rule {rule.name!r} has no score jump outside the top cell"
        )
    xs, ys = jump
    umask = (1 << k) - 1                                   # alternatives 0..k-1
    vmask = ((1 << k) - 1) << 1                            # alternatives 1..k
    wmask = sum(1 << i for i in range(k - xs + 1, ys + k - xs + 1))
    ground = Committee(AlternativeSet(umask, m), k)
    rival = Committee(AlternativeSet(vmask, m), k)

    # V and W hold alternative k or above, so both masks exceed U's
    near = {(umask, vmask): Fraction(1), (umask, wmask): Fraction(1)}
    metric = metrics.DistanceMetric(
        f"jump_adversarial({rule.name})", m, table=near, default=Fraction(2)
    )
    levels = metrics.level_structure(metric, ground)  # sizes 1, 2 and 2^m - 3
    row, scale = rules.level_gap_rows(rule, levels, umask, [vmask])
    c0, c1, c2 = (Fraction(int(c), scale) for c in row[0])
    at_zero, slope = (c0 + c1) / 3, 2 * c2 / ((1 << m) - 3) - c1  # gap = at_zero + delta * slope
    delta = Fraction(1, 6 * ((1 << m) - 1))
    while (gap := at_zero + delta * slope) >= 0:
        delta /= 2
    probs = [Fraction(1, 3), Fraction(1, 3) - delta, 2 * delta / ((1 << m) - 3)]
    model = make_level_model(metric, ground, probs)
    audited, pair = audit_d_monotonic(model, metric)
    if not audited:
        raise RuntimeError(f"constructed model failed its own audit at {pair}")
    return CounterexamplePackage(metric, model, ground, rival, gap, jump, delta)


def av_refutation_model(
    metric: metrics.DistanceMetric,
    ground: Committee,
    a: int,
    b: int,
    t_star: int,
) -> NoiseModel:
    """Model under which a concentricity violation makes AV prefer swapping
    a out for b.

    Requires a member a and an outsider b of the ground, and the violation
    N^{t*}(a|b) < N^{t*}(b|a) at the given radius index. AV scores a vote S
    for the ground minus the swap as [a in S] - [b in S], so the prefix
    through t* of their level gap coefficients is exactly
    N^{t*}(a|b) - N^{t*}(b|a), and the model is `negative_gap_model` at t*.
    A signature metric's coefficients come from its level grid, at any m.
    """
    m = metric.m
    if not (0 <= a < m and 0 <= b < m and ground.mask >> a & 1 and not ground.mask >> b & 1):
        raise PreconditionError(
            f"need a member a and an outsider b of the ground, got a={a}, b={b}"
        )
    levels = metrics.level_structure(metric, ground)
    if not 1 <= t_star < levels.spn:
        raise PreconditionError(f"t*={t_star} outside 1..{levels.spn - 1}")
    av = rules.make_rule("av", m, ground.k)
    vmask = ground.mask & ~(1 << a) | (1 << b)
    row, scale = rules.level_gap_rows(av, levels, ground.mask, [vmask])
    coeffs = [Fraction(int(c), scale) for c in row[0]]
    violation = sum(coeffs[: t_star + 1], start=Fraction(0))
    if violation >= 0:
        raise PreconditionError(
            f"no concentricity violation at (a={a}, b={b}, t*={t_star}): "
            f"N(a|b) - N(b|a) = {frac_str(violation)} >= 0"
        )
    return negative_gap_model(metric, ground, coeffs, t_star)[0]


# ---------------------------------------------------------------------------
# Model file format:
#   {"type": "mp", "p": "3/4", "ground": ["a","b"], "alternatives": ["a","b","c"]}
#   {"type": "level", "metric": {...}, "ground": [...], "probs": ["p/q", ...]}

def model_to_json(model: NoiseModel) -> dict:
    doc = {
        "type": "mp" if model.kind == "product" else "level",
        "ground": list(model.ground.labels(model.universe)),
        "alternatives": list(model.universe.names),
    }
    if model.kind == "product":
        doc["p"] = frac_str(model.p)
    else:
        doc["metric"] = metrics.metric_to_json(model.metric, model.universe)
        doc["probs"] = [frac_str(q) for q in model.level_probs]
        if model.zero_tail:
            doc["zero_tail"] = True
    return doc


def model_from_json(doc: dict, m: int | None = None) -> NoiseModel:
    try:
        names = doc.get("alternatives")
        if names:
            universe = Universe(tuple(names))
            if m is not None and universe.m != m:
                raise DomainMismatchError(f"model file has m={universe.m}; need m={m}")
        elif m is not None:
            universe = default_universe(m)
        else:
            raise ProfileParseError("model file needs 'alternatives' or an explicit m")
        labels = list(doc["ground"])
        if len(set(labels)) != len(labels):
            raise ProfileParseError(f"duplicate label in ground {labels!r}")
        ground_set = universe.set_of(labels)
        ground = Committee(ground_set, ground_set.size)
        if doc["type"] == "mp":
            return make_mp(parse_frac(str(doc["p"])), universe, ground)
        if doc["type"] == "level":
            metric_doc = doc["metric"]
            metric = (
                metrics.make_metric(metric_doc, universe.m)
                if isinstance(metric_doc, str)
                else metrics.metric_from_json(metric_doc, universe.m)
            )
            probs = [parse_frac(str(q)) for q in doc["probs"]]
            return make_level_model(metric, ground, probs, universe)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProfileParseError(f"bad model file: {exc}") from None
    raise ProfileParseError(f"unknown model type {doc.get('type')!r}")


def load_model_file(path, m: int | None = None) -> NoiseModel:
    return model_from_json(read_json(path, "model"), m)
