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

from .core import (  # RNG_SCHEME is re-exported
    RNG_SCHEME,
    AlternativeSet,
    Committee,
    Frozen,
    Profile,
    Universe,
    check_matrix,
    check_sets,
    default_universe,
    frac_str,
    parse_frac,
    read_json,
    scaled_integers,
)
from .errors import (
    DeltaSearchError,
    DomainMismatchError,
    InvalidNoiseParamError,
    NoCounterexampleError,
    NotMonotonicError,
    NotNormalizedError,
    PreconditionError,
    ProfileParseError,
)
from .metrics import (
    DistanceMetric,
    LevelStructure,
    level_structure,
    make_metric,
    metric_from_json,
    metric_to_json,
    neighborhood_count,
)
from .rules import AbccRule, level_gap_rows, make_rule


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
        metric: DistanceMetric | None = None,
        level_probs: tuple[Fraction, ...] | None = None,
        levels: LevelStructure | None = None,
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

    def check_rule(self, rule: AbccRule) -> None:
        """Refuse a rule for another number of alternatives or committee size."""
        if (self.m, self.ground.k) != (rule.m, rule.k):
            raise PreconditionError(
                f"model has m={self.m}, k={self.ground.k}; rule has m={rule.m}, k={rule.k}"
            )

    @property
    def zero_tail(self) -> bool:
        """Whether the farthest level carries zero probability (admitted, flagged)."""
        return self.kind == "level" and self.level_probs[-1] == 0

    def probability(self, vote: AlternativeSet | int) -> Fraction:
        mask = vote if isinstance(vote, int) else vote.mask
        if self.kind == "product":
            dist = (mask ^ self.ground.mask).bit_count()
            return self.p ** (self.m - dist) * (1 - self.p) ** dist
        return self.level_probs[self.levels.level_of[mask]]

    def prob_table(self) -> list[Fraction]:
        """Exact probabilities indexed by vote mask."""
        check_sets(self.m)
        return [self.probability(mask) for mask in range(1 << self.m)]

    def level_form(self) -> tuple[LevelStructure, tuple[Fraction, ...]]:
        """(levels, probs): each set at level t has probability probs[t]. A
        product model is the level model of `set_difference`: its level d
        holds the sets at distance d = 0..m, each with p^(m-d) * (1-p)^d."""
        if self.kind == "level":
            return self.levels, self.level_probs
        return self._product_levels

    @functools.cached_property
    def _product_levels(self) -> tuple[LevelStructure, tuple[Fraction, ...]]:
        m, p = self.m, self.p
        levels = level_structure(make_metric("set_difference", m), self.ground)
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
    metric: DistanceMetric,
    ground: Committee,
    level_probs,
    universe: Universe | None = None,
) -> NoiseModel:
    """Model assigning probability level_probs[t] to every set at level t.

    Validates strict decrease across levels (the farthest level may be 0)
    and exact normalization against the level sizes.
    """
    universe = universe or default_universe(metric.m)
    levels = level_structure(metric, ground)
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
    metric: DistanceMetric,
    ground: Committee,
    universe: Universe | None = None,
    zero_tail: bool = False,
) -> NoiseModel:
    """Canonical strict model with linearly decreasing level probabilities."""
    levels = level_structure(metric, ground)
    s = levels.spn
    weights = [s + 1 - t for t in range(s + 1)] if not zero_tail else [s - t for t in range(s + 1)]
    if zero_tail and s == 0:
        raise PreconditionError("cannot zero the only level")
    total = sum(w * size for w, size in zip(weights, levels.sizes))
    return make_level_model(
        metric, ground, [Fraction(w, total) for w in weights], universe
    )


def audit_d_monotonic(
    model: NoiseModel, metric: DistanceMetric | None = None
) -> tuple[bool, tuple | None]:
    """Pairwise audit of the strict-iff condition.

    Checks Pr[S1|U] > Pr[S2|U] exactly when d(U, S1) < d(U, S2) over all
    ordered pairs of subsets. By default d is the model's own metric, and
    a product model's is the symmetric-difference metric.
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
        return False, tuple(AlternativeSet(int(s), model.m) for s in order[i : i + 2])
    return True, None


def expected_gaps(rule: AbccRule, model: NoiseModel, umask: int, vmasks) -> list[Fraction]:
    """Exact E[f(U, S) - f(V_i, S)] per rival mask V_i, S drawn from the
    model: its level gap rows weighed by the level probabilities."""
    levels, probs = model.level_form()
    coeffs, scale = level_gap_rows(rule, levels, umask, vmasks)
    weights, den = scaled_integers(probs)
    totals = coeffs.astype(object) @ weights.astype(object)
    return [Fraction(int(total), scale * den) for total in totals]


# ---------------------------------------------------------------------------
# Sampling.

def sample_vote_masks(model: NoiseModel, n: int, rng: np.random.Generator) -> list[int]:
    """Draw n i.i.d. vote masks. Product models avoid the 2^m table."""
    if n == 0:
        return []
    if model.kind == "product":
        m, gmask = model.m, model.ground.mask
        keep = float(model.p)
        uniforms = rng.random((n, m))
        thresholds = np.array(
            [keep if gmask >> i & 1 else 1.0 - keep for i in range(m)]
        )
        weights = np.array([1 << i for i in range(m)], dtype=np.int64 if m <= 62 else object)
        return ((uniforms < thresholds) @ weights).tolist()
    levels, probs = model.level_form()
    cumulative = np.cumsum(np.array([float(q) for q in probs])[np.asarray(levels.level_of)])
    cumulative[-1] = 1.0  # guard against float round-off at the top
    draws = rng.random(n)
    return np.searchsorted(cumulative, draws, side="right").tolist()


def sample_profile(model: NoiseModel, n: int, seed) -> Profile:
    """n i.i.d. votes from the model; deterministic for a given seed."""
    if n < 0:
        raise PreconditionError("n must be non-negative")
    rng = np.random.default_rng(seed)
    masks = sample_vote_masks(model, n, rng)
    sets = {mask: AlternativeSet(mask, model.m) for mask in set(masks)}
    return Profile(tuple(map(sets.__getitem__, masks)))


# ---------------------------------------------------------------------------
# Adversarial constructions.

class CounterexamplePackage(NamedTuple):
    """A metric + model under which the rule prefers a rival to the ground truth."""

    metric: DistanceMetric
    model: NoiseModel
    ground: Committee
    rival: Committee
    expected_gap: Fraction
    jump: tuple[int, int]
    delta: Fraction


_MAX_HALVINGS = 64


def jump_counterexample(rule: AbccRule) -> CounterexamplePackage:
    """Adversarial distance metric and model defeating any rule with a
    score jump below the top cell.

    Finds the first feasible (x*, y*) != (k, k) with f(x*, y*) > f(x*-1, y*),
    pins distances d(U,V) = d(U,W) = 1 with every other distance 2 (a
    table of two entries and a default), and lowers delta by halving until
    the exact expected gap for the rival V turns negative.

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
    metric = DistanceMetric(f"jump_adversarial({rule.name})", m, table=near, default=Fraction(2))

    sets_total = 1 << m
    delta = Fraction(1, 3 * (sets_total - 1)) / 2
    for _ in range(_MAX_HALVINGS):
        probs = [
            Fraction(1, 3),
            Fraction(1, 3) - delta,
            2 * delta / (sets_total - 3),
        ]
        model = make_level_model(metric, ground, probs)
        (gap,) = expected_gaps(rule, model, umask, [vmask])
        if gap < 0:
            audited, pair = audit_d_monotonic(model, metric)
            if not audited:
                raise RuntimeError(f"constructed model failed its own audit at {pair}")
            return CounterexamplePackage(metric, model, ground, rival, gap, jump, delta)
        delta /= 2
    raise DeltaSearchError(
        f"gap still non-negative after {_MAX_HALVINGS} halvings (rule {rule.name!r})"
    )


def av_refutation_model(
    metric: DistanceMetric,
    ground: Committee,
    a: int,
    b: int,
    t_star: int,
    universe: Universe | None = None,
) -> NoiseModel:
    """Model under which a concentricity violation makes AV prefer swapping
    a out for b.

    Requires a member a and an outsider b of the ground, and the violation
    N^{t*}(a|b) < N^{t*}(b|a) at the given radius index. Probabilities form
    two strictly decreasing blocks: from tau down to tau - eps through level
    t*, then from 2*eps down to eps, with eps = 1/(s*8^m); tau comes out of
    exact normalization. Interior values interpolate linearly (any strictly
    decreasing choice works).
    """
    universe = universe or default_universe(metric.m)
    m = metric.m
    if not (0 <= a < m and 0 <= b < m and ground.mask >> a & 1 and not ground.mask >> b & 1):
        raise PreconditionError(
            f"need a member a and an outsider b of the ground, got a={a}, b={b}"
        )
    levels = level_structure(metric, ground)
    s = levels.spn
    if not 1 <= t_star <= s - 1:
        raise PreconditionError(f"t*={t_star} outside 1..{s - 1}")
    n_ab = neighborhood_count(metric, ground, a, b, t_star)
    n_ba = neighborhood_count(metric, ground, b, a, t_star)
    if n_ab >= n_ba:
        raise PreconditionError(
            f"no concentricity violation at (a={a}, b={b}, t*={t_star}): "
            f"{n_ab} >= {n_ba}"
        )
    eps = Fraction(1, s * 8**m)
    # block 2 first: fixed once eps is fixed
    tail = {}
    if t_star + 1 == s:
        tail[s] = eps
    else:
        span = s - t_star - 1
        for t in range(t_star + 1, s + 1):
            tail[t] = 2 * eps - eps * Fraction(t - t_star - 1, span)
    # block 1: p_t = tau - eps * t/t*, solve normalization for tau
    head_sizes = levels.sizes[: t_star + 1]
    head_weight = sum(head_sizes)
    head_offset = sum(
        (Fraction(size) * eps * Fraction(t, t_star) for t, size in enumerate(head_sizes)),
        start=Fraction(0),
    )
    tail_mass = sum(
        (Fraction(levels.sizes[t]) * q for t, q in tail.items()), start=Fraction(0)
    )
    tau = (1 - tail_mass + head_offset) / head_weight
    if tau <= Fraction(1, 1 << m):
        raise PreconditionError(f"tau = {frac_str(tau)} not above 1/2^m; degenerate input")
    probs = [tau - eps * Fraction(t, t_star) for t in range(t_star + 1)]
    probs += [tail[t] for t in range(t_star + 1, s + 1)]
    model = make_level_model(metric, ground, probs, universe)

    av = make_rule("av", m, ground.k)
    vmask = ground.mask & ~(1 << a) | (1 << b)
    (gap,) = expected_gaps(av, model, ground.mask, [vmask])
    if gap >= 0:
        raise DeltaSearchError(
            f"refutation model failed to produce a negative gap ({frac_str(gap)})"
        )
    return model


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
        doc["metric"] = metric_to_json(model.metric, model.universe)
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
                make_metric(metric_doc, universe.m)
                if isinstance(metric_doc, str)
                else metric_from_json(metric_doc, universe.m)
            )
            probs = [parse_frac(str(q)) for q in doc["probs"]]
            return make_level_model(metric, ground, probs, universe)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProfileParseError(f"bad model file: {exc}") from None
    raise ProfileParseError(f"unknown model type {doc.get('type')!r}")


def load_model_file(path, m: int | None = None) -> NoiseModel:
    return model_from_json(read_json(path, "model"), m)
