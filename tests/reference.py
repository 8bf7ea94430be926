"""Brute-force Fraction loops: the reference implementations that the exact
integer kernels in abcc.rules and abcc.metrics are checked against.

The rule functions sum per-vote scores f(|C ∩ S|, |S|) one vote at a
time, and the metric classifiers visit sets, pairs and triples one at a
time, all in exact rational arithmetic, the way the library did before
its sweeps ran on integer-scaled numpy arrays. Every classifier returns
the first violation in the order its loops visit them. Distances come
one Fraction per cell from metric.d, and the builtin metrics are also
given here in their mask form, the form they had before they became
functions of the signature (|X∖Y|, |Y∖X|, |X∩Y|). The profile text
format is parsed and written one line per vote, and a profile is scored
one vote at a time. Expected gaps weigh each vote by the model's per-vote
probability table, read one vote at a time off the product model's closed
form or the level model's level probabilities; votes are sampled from one
draw of all their uniforms, and the Hoeffding sample size is a 60-digit
decimal logarithm. The product model's most likely committees sum
|C △ S| one committee at a time, and the MLE check decides one profile
per call. Result files are written by the standard library's JSON
encoder. `nontrivial_sweep` keeps the integer kernel: it compares every
committee pair on all 2^m votes, the sweep that the overlap classes of
`rules.is_nontrivial` replaced.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from abcc.core import (
    AlternativeSet,
    Profile,
    Universe,
    check_sets,
    committee_masks,
    scaled_integers,
)
from abcc.errors import ProfileParseError
from abcc.metrics import DistanceMetric
from abcc.rules import (
    BLOCK_CELLS,
    ScoreBreakdown,
    integer_table,
    make_rule,
    score_blocks,
    vote_score,
)


def row(metric, umask):
    """d(U, S) for every set S, indexed by mask, one Fraction per cell."""
    return [metric.d(umask, s) for s in range(1 << metric.m)]


class MatrixMetric(DistanceMetric):
    """A distance given as a dense 2^m x 2^m Fraction matrix, which may be
    asymmetric or non-zero on the diagonal: the negative cases of the axiom
    checks that neither library form (signature or table) can express."""

    def __init__(self, name, matrix):
        super().__init__(name, len(matrix).bit_length() - 1, table={})
        self.matrix = matrix

    def d(self, xmask, ymask):
        return self.matrix[xmask][ymask]

    def rows(self, masks, terms=1):
        return scaled_integers([self.matrix[x] for x in masks], terms)


# The builtin distances as closed forms of the two masks.

def d_set_difference(x, y):
    return Fraction((x ^ y).bit_count())


def d_jaccard(x, y):
    union = (x | y).bit_count()
    if union == 0:
        return Fraction(0)
    return Fraction((x ^ y).bit_count(), union)


def d_zelinka(x, y):
    return Fraction(max((x & ~y).bit_count(), (y & ~x).bit_count()))


def d_bunke_shearer(x, y):
    top = max(x.bit_count(), y.bit_count())
    if top == 0:
        return Fraction(0)
    return Fraction(max((x & ~y).bit_count(), (y & ~x).bit_count()), top)


def d_trivial(x, y):
    return Fraction(0 if x == y else 1)


def d_example2(x, y):
    if x == y:
        return Fraction(0)
    if (x & y) == 0 and (x | y) == 0b111:
        return Fraction(1)
    return Fraction(2)


MASK_DISTANCES = {
    "set_difference": d_set_difference,
    "jaccard": d_jaccard,
    "zelinka": d_zelinka,
    "bunke_shearer": d_bunke_shearer,
    "trivial": d_trivial,
    "example2": d_example2,
}


def _gap(rule, umask, vmask, s):
    y = s.bit_count()
    return rule.table[((umask & s).bit_count(), y)] - rule.table[((vmask & s).bit_count(), y)]


def score_from_counts(rule, committee_mask, counts):
    """Score from a {vote mask: multiplicity} tally."""
    total = Fraction(0)
    for mask, mult in counts.items():
        x = (committee_mask & mask).bit_count()
        total += rule.table[(x, mask.bit_count())] * mult
    return total


def profile_score(rule, committee, profile):
    """ScoreBreakdown of one Fraction per vote, summed in vote order."""
    per_vote = (vote_score(rule, committee, vote) for vote in profile)
    return ScoreBreakdown(committee, sum(per_vote, Fraction(0)))


def parse_profile(text):
    """(Universe, Profile) of the profile text format, one line at a time."""
    universe = None
    votes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if universe is None:
            if not line:
                continue
            if not line.startswith("alternatives:"):
                raise ProfileParseError(
                    "expected header 'alternatives: ...' before any votes", line=lineno
                )
            names = [t.strip() for t in line[len("alternatives:"):].split(",")]
            names = [t for t in names if t]
            if not names:
                raise ProfileParseError("empty alternatives declaration", line=lineno)
            try:
                universe = Universe(tuple(names))
            except ValueError as exc:
                raise ProfileParseError(str(exc), line=lineno) from None
            continue
        if not line:
            votes.append(AlternativeSet(0, universe.m))
            continue
        mask = 0
        for token in line.split(","):
            token = token.strip()
            if not token:
                raise ProfileParseError("empty label in vote", line=lineno)
            try:
                mask |= 1 << universe.index(token)
            except KeyError:
                raise ProfileParseError(f"unknown alternative {token!r}", line=lineno) from None
        votes.append(AlternativeSet(mask, universe.m))
    if universe is None:
        raise ProfileParseError("missing 'alternatives:' header")
    return universe, Profile(tuple(votes))


def format_profile(universe, profile):
    """The profile text format, one label string built per vote."""
    lines = ["alternatives: " + ",".join(universe.names)]
    for vote in profile:
        lines.append(",".join(vote.labels(universe)))
    return "\n".join(lines) + "\n"


def winner_masks(rule, masks, counts):
    """Committee masks of maximum score, in the order of `masks`."""
    best = None
    best_masks = []
    for cmask in masks:
        total = score_from_counts(rule, cmask, counts)
        if best is None or total > best:
            best, best_masks = total, [cmask]
        elif total == best:
            best_masks.append(cmask)
    return best_masks


def distance_minimizers(masks, counts):
    """Committee masks of minimum total |C △ S| over a {vote mask: count}
    tally, in the order of `masks`."""
    best = None
    best_masks = []
    for cmask in masks:
        total = sum(((cmask ^ vmask).bit_count()) * mult for vmask, mult in counts.items())
        if best is None or total < best:
            best, best_masks = total, [cmask]
        elif total == best:
            best_masks.append(cmask)
    return best_masks


def mle_profiles(m, profiles, seed, n_max=12):
    """The {vote mask: count} tallies of the MLE check's random profiles,
    profile i drawn from the stream SeedSequence([seed, i])."""
    tallies = []
    for i in range(profiles):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        n = int(rng.integers(1, n_max + 1))
        tallies.append(Counter(int(mask) for mask in rng.integers(0, 1 << m, size=n)))
    return tallies


def mle_equivalence_check(m, k, profiles, seed, n_max=12):
    """(agreeing profiles, profiles): per profile, whether the total-distance
    minimizers are the approval winners, both found one committee at a time."""
    masks = committee_masks(m, k)
    av = make_rule("av", m, k)
    agree = sum(
        distance_minimizers(masks, counts) == winner_masks(av, masks, counts)
        for counts in mle_profiles(m, profiles, seed, n_max)
    )
    return agree, profiles


def probability(model, mask):
    """A noise model's exact probability of the vote `mask`: the product
    model's closed form p^(m-d) * (1-p)^d at distance d from the ground,
    or the level model's probability of the vote's level."""
    if model.kind == "product":
        dist = (mask ^ model.ground.mask).bit_count()
        return model.p ** (model.m - dist) * (1 - model.p) ** dist
    return model.level_probs[model.levels.level_of[mask]]


def prob_table(model):
    """Exact probabilities indexed by vote mask, for m <= MAX_M."""
    check_sets(model.m)
    return [probability(model, mask) for mask in range(1 << model.m)]


def sample_vote_masks(model, n, rng):
    """n vote masks from one draw of all their uniforms: the product
    model's (n x m) uniforms against its keep thresholds, weighed by the
    bit values 2^i, or the level model's n uniforms placed on the
    cumulative probabilities of the 2^m sets."""
    m = model.m
    if model.kind == "product":
        keep = float(model.p)
        gmask = model.ground.mask
        thresholds = np.array([keep if gmask >> i & 1 else 1.0 - keep for i in range(m)])
        weights = np.array([1 << i for i in range(m)], dtype=np.int64 if m <= 62 else object)
        return ((rng.random((n, m)) < thresholds) @ weights).tolist()
    cumulative = np.cumsum([float(probability(model, mask)) for mask in range(1 << m)])
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, rng.random(n), side="right").tolist()


def hoeffding_n(coefficient, m, k, eps):
    """ceil(coefficient * ln(2 m^k / eps)) in 60-digit decimal arithmetic."""
    x = 2 * m**k / Fraction(eps)
    with localcontext(prec=60):
        value = Decimal(coefficient.numerator) / coefficient.denominator
        value *= (Decimal(x.numerator) / x.denominator).ln()
        return math.ceil(value)


def weighted_gap(rule, table, umask, vmask):
    """(sum_S p(S) * gap(S), whether some S with p(S) > 0 has gap(S) != 0)."""
    total = Fraction(0)
    support_nonzero = False
    for s, prob in enumerate(table):
        g = _gap(rule, umask, vmask, s)
        if g and prob:
            total += g * prob
            support_nonzero = True
    return total, support_nonzero


def direct_gap(rule, model, umask, vmask):
    """Exact expected score gap under a noise model's full probability table."""
    return weighted_gap(rule, prob_table(model), umask, vmask)[0]


def vote_gaps(rule, umask, vmask):
    """gap(S) = sc(U, S) - sc(V, S) for every vote S, indexed by mask."""
    return [_gap(rule, umask, vmask, s) for s in range(1 << rule.m)]


def level_coefficients(levels, gaps):
    """c_t = sum of gap(S) over the sets S at distance level t."""
    coeffs = [Fraction(0)] * (levels.spn + 1)
    for g, lev in zip(gaps, levels.level_of):
        if g:
            coeffs[lev] += g
    return coeffs


def identically_zero(rule, umask, vmask):
    """Whether the per-vote gap vanishes on every one of the 2^m votes."""
    return not any(_gap(rule, umask, vmask, s) for s in range(1 << rule.m))


def is_nontrivial(rule):
    """(value, first (U, V) mask pair without a vote S with sc(U, S) > sc(V, S))."""
    masks = committee_masks(rule.m, rule.k)
    for umask in masks:
        for vmask in masks:
            if umask != vmask and not any(
                _gap(rule, umask, vmask, s) > 0 for s in range(1 << rule.m)
            ):
                return False, (umask, vmask)
    return True, None


def nontrivial_sweep(rule):
    """reference.is_nontrivial on the integer kernel: every committee pair
    compared on blocks of the 2^m votes at once, the sweep that
    `rules.is_nontrivial` made before it ran on overlap classes."""
    m = rule.m
    masks = committee_masks(m, rule.k)
    table, _ = integer_table(rule, 1)
    separated = np.eye(len(masks), dtype=bool)
    step = max(1, BLOCK_CELLS // len(masks) ** 2)  # pair x vote cells per comparison
    for _, scores in score_blocks(table, m, masks, range(1 << m)):
        for lo in range(0, scores.shape[1], step):
            part = scores[:, lo : lo + step]
            separated |= (part[:, None, :] > part[None, :, :]).any(axis=2)
    if separated.all():
        return True, None
    u, v = np.argwhere(~separated)[0]
    return False, (masks[u], masks[v])


def metric_axioms(metric):
    """(axiom, witness masks) of the first violated metric axiom, or None."""
    n = 1 << metric.m
    D = [row(metric, i) for i in range(n)]
    for i in range(n):
        if D[i][i] != 0:
            return "identity", (i, i)
        for j in range(i + 1, n):
            if D[i][j] != D[j][i]:
                return "symmetry", (i, j)
            if D[i][j] <= 0:
                return "positivity", (i, j)
    for j in range(n):
        for i in range(n):
            for k in range(n):
                if D[i][k] > D[i][j] + D[j][k]:
                    return "triangle", (i, j, k)
    return None


def level_structure(metric, umask):
    """(values, level_of, sizes): the distinct distances from U, ascending,
    each set's level index, and the number of sets per level."""
    dist = row(metric, umask)
    values = sorted(set(dist))
    index = {v: t for t, v in enumerate(values)}
    level_of = [index[v] for v in dist]
    sizes = [0] * len(values)
    for lev in level_of:
        sizes[lev] += 1
    return values, level_of, sizes


def neighborhood_count(level_of, a, b, t):
    """Number of sets containing a but not b within the t-th distance level,
    given each set's level index."""
    return sum(
        1 for mask, lev in enumerate(level_of)
        if lev <= t and (mask >> a & 1) and not (mask >> b & 1)
    )


def majority_concentric(metric, k):
    """First (U mask, a, b, t) with N^t(a|b) < N^t(b|a), or None."""
    m = metric.m
    for umask in committee_masks(m, k):
        _, level_of, sizes = level_structure(metric, umask)
        members = [i for i in range(m) if umask >> i & 1]
        outsiders = [i for i in range(m) if not umask >> i & 1]
        pairs = [(a, b) for a in members for b in outsiders]
        inside = {pair: 0 for pair in pairs}
        reverse = {pair: 0 for pair in pairs}
        by_level = [[] for _ in sizes]
        for mask, lev in enumerate(level_of):
            by_level[lev].append(mask)
        for t, masks in enumerate(by_level):
            for mask in masks:
                for a, b in pairs:
                    has_a = mask >> a & 1
                    has_b = mask >> b & 1
                    if has_a and not has_b:
                        inside[(a, b)] += 1
                    elif has_b and not has_a:
                        reverse[(a, b)] += 1
            for a, b in pairs:
                if inside[(a, b)] < reverse[(a, b)]:
                    return umask, a, b, t
    return None


def overlap_triples(metric, k, strict):
    """First (U, V, S) masks with |U∩S| > |V∩S| and d(U,S) > d(V,S)
    (>= when strict), or None."""
    m = metric.m
    masks = committee_masks(m, k)
    rows = {umask: row(metric, umask) for umask in masks}
    for umask in masks:
        for vmask in masks:
            if umask == vmask:
                continue
            for s in range(1 << m):
                if (umask & s).bit_count() > (vmask & s).bit_count():
                    du, dv = rows[umask][s], rows[vmask][s]
                    if du > dv or (strict and du == dv):
                        return umask, vmask, s
    return None


def alternative_independent(metric):
    """First two ordered mask pairs with equal (|X\\Y|, |Y\\X|, |X|, |Y|)
    but different distance, or None."""
    first = {}
    for x in range(1 << metric.m):
        for y in range(1 << metric.m):
            sig = ((x & ~y).bit_count(), (y & ~x).bit_count(), x.bit_count(), y.bit_count())
            d = metric.d(x, y)
            seen = first.setdefault(sig, (x, y, d))
            if seen[2] != d:
                return (seen[0], seen[1]), (x, y)
    return None


def audit_d_monotonic(model, metric):
    """(ok, witness): the first neighbours in the distance-sorted order
    whose probabilities break "equal distance iff equal probability,
    nearer iff likelier"."""
    table = prob_table(model)
    dist = row(metric, model.ground.mask)
    order = sorted(range(1 << model.m), key=lambda s: dist[s])
    for prev, cur in zip(order, order[1:]):
        same_distance = dist[prev] == dist[cur]
        if same_distance and table[prev] != table[cur]:
            return False, (AlternativeSet(prev, model.m), AlternativeSet(cur, model.m))
        if not same_distance and table[prev] <= table[cur]:
            return False, (AlternativeSet(prev, model.m), AlternativeSet(cur, model.m))
    return True, None


def pretty_json(doc):
    """A result file's text, without its trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True)
