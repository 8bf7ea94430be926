"""Counting-based approval committee rules: catalog, scoring, winners.

A rule is a table of exact rational scores f(x, y) over the feasible
pair domain, where a committee earns f(|U ∩ S|, |S|) from each vote S.
All scores are Fractions; winner determination never touches floats,
because downstream robustness verdicts hinge on strict sign comparisons.
Sweeps over many votes run on the table scaled to exact integers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb
from typing import NamedTuple

import numpy as np

from .core import (  # RULE_KINDS is re-exported
    RULE_KINDS,
    AlternativeSet,
    Check,
    Committee,
    Profile,
    binomial_row,
    check_classes,
    check_k,
    committee_masks,
    feasible_pairs,
    first_rival,
    frac_str,
    mask_words,
    overlap_classes,
    parse_frac,
    popcount,
    read_json,
    scaled_integers,
)
from .errors import DomainMismatchError, InvalidRuleError, ProfileParseError


class AbccRule(NamedTuple):
    """Score table over the feasible (x, y) domain for fixed (m, k)."""

    name: str
    m: int
    k: int
    table: dict[tuple[int, int], Fraction]


class ScoreBreakdown(NamedTuple):
    committee: Committee
    total: Fraction


def _validate_table(m, k, table) -> dict[tuple[int, int], Fraction]:
    # The domain is walked in (x, y) order only up to its first pair missing
    # from the table, never built, so a short table over a huge m fails at once.
    check_k(m, k)
    size = (k + 1) * (m - k + 1)
    extra = [(x, y) for x, y in table if not (0 <= x <= k and x <= y <= m - k + x)]
    domain = ((x, y) for x in range(k + 1) for y in range(x, m - k + x + 1))
    missing = next((pair for pair in domain if pair not in table), None)
    if extra or missing:
        raise InvalidRuleError(
            f"table must be total on the {size} feasible pairs; "
            f"{size - len(table) + len(extra)} missing (first: {missing}), "
            f"{len(extra)} extra (first: {min(extra, default=None)})"
        )
    clean = {}
    for (x, y), value in table.items():
        value = Fraction(value)
        if value < 0:
            raise InvalidRuleError(f"negative score f({x},{y})={value}")
        clean[(x, y)] = value
    for (x, y) in sorted(clean):
        if (x + 1, y) in clean and clean[(x + 1, y)] < clean[(x, y)]:
            raise InvalidRuleError(
                f"score not non-decreasing in x: f({x + 1},{y}) < f({x},{y})"
            )
    return clean


def make_rule(kind: str, m: int, k: int, *, weights=None, p=None, table=None) -> AbccRule:
    """Build a catalog rule or validate a custom table.

    Parameters
    ----------
    kind : str
        One of RULE_KINDS. "thiele" needs `weights` (k non-negative
        rationals), "p_geometric" a rational `p` > 0, "custom" a full
        `table` mapping each feasible (x, y) to a non-negative rational.
        The two special m=4/k=2 rules reject other (m, k).
    """
    if kind == "custom":
        if table is None:
            raise InvalidRuleError("custom requires a table")
        return AbccRule("custom", m, k, _validate_table(m, k, table))
    domain = feasible_pairs(m, k)

    def from_fn(name, fn):
        return AbccRule(name, m, k, {(x, y): Fraction(fn(x, y)) for x, y in domain})

    if kind == "av":
        return from_fn("av", lambda x, y: x)
    if kind == "cc":
        return from_fn("cc", lambda x, y: min(1, x))
    if kind == "pav":
        return from_fn("pav", lambda x, y: sum(Fraction(1, i) for i in range(1, x + 1)))
    if kind == "sav":
        return from_fn("sav", lambda x, y: Fraction(x, y) if y > 0 else Fraction(0))
    if kind == "mc":
        return from_fn("mc", lambda x, y: 1 if (x, y) == (k, k) else 0)
    def thiele(name, weights):
        w = [Fraction(wi) for wi in weights]
        if len(w) != k:
            raise InvalidRuleError(f"need k={k} weights, got {len(w)}")
        if any(wi < 0 for wi in w):
            raise InvalidRuleError("thiele weights must be non-negative")
        return from_fn(name, lambda x, y: sum(w[:x], Fraction(0)))

    if kind == "thiele":
        if weights is None:
            raise InvalidRuleError("thiele requires a weight vector")
        # named by its exact weights, in the syntax of --rule thiele:w1;w2;...
        return thiele(f"thiele({';'.join(frac_str(Fraction(w)) for w in weights)})", weights)
    if kind == "p_geometric":
        if p is None:
            raise InvalidRuleError("p_geometric requires p")
        pf = Fraction(p)
        if pf <= 0:
            raise InvalidRuleError("p_geometric requires p > 0")
        # convention: weight of the j-th committee member in a vote is p^j
        return thiele(f"p_geometric({frac_str(pf)})", [pf**j for j in range(1, k + 1)])
    if kind == "sainte_lague":
        # convention: weights 1/(2j - 1)
        return thiele("sainte_lague", [Fraction(1, 2 * j - 1) for j in range(1, k + 1)])
    if kind == "special6_f":
        if (m, k) != (4, 2):
            raise InvalidRuleError("special6_f is defined only for m=4, k=2")
        return from_fn("special6_f", lambda x, y: x if y == 2 else 0)
    if kind == "special6_fprime":
        if (m, k) != (4, 2):
            raise InvalidRuleError("special6_fprime is defined only for m=4, k=2")
        return from_fn("special6_fprime", lambda x, y: 2 * x if y == 2 else x)
    raise InvalidRuleError(f"unknown rule kind {kind!r}")


def _check_committee(rule: AbccRule, committee: Committee) -> None:
    if committee.k != rule.k or committee.m != rule.m:
        raise DomainMismatchError(
            f"committee (m={committee.m}, k={committee.k}) does not match rule "
            f"(m={rule.m}, k={rule.k})"
        )


def _check_vote(rule: AbccRule, vote: AlternativeSet) -> None:
    if vote.m != rule.m:
        raise DomainMismatchError(f"vote universe size {vote.m} != rule m {rule.m}")


def vote_score(rule: AbccRule, committee: Committee, vote: AlternativeSet) -> Fraction:
    """Exact score the committee earns from a single approval vote."""
    _check_committee(rule, committee)
    _check_vote(rule, vote)
    x = (committee.mask & vote.mask).bit_count()
    return rule.table[(x, vote.size)]


def _vote_counts(rule: AbccRule, profile: Profile) -> Counter:
    """The profile's {vote mask: count} tally, counted without a list of its
    votes; all votes of a Profile share one universe."""
    if profile.votes:
        _check_vote(rule, profile.votes[0])
    return Counter(vote.mask for vote in profile.votes)


def profile_score(rule: AbccRule, committee: Committee, profile: Profile) -> ScoreBreakdown:
    """Total exact score of a committee over a profile: one integer product
    over the distinct votes and their multiplicities."""
    _check_committee(rule, committee)
    counts = _vote_counts(rule, profile)
    table, scale = integer_table(rule, len(profile))
    total = committee_totals(table, rule.m, counts, [committee.mask])[0]
    return ScoreBreakdown(committee, Fraction(int(total), scale))


# ---------------------------------------------------------------------------
# The exact integer kernel. Every sweep over votes (winner determination,
# distance totals, score gaps by level or by vote) scores a
# block of committees against a block of votes in one numpy expression on
# the rule table scaled to integers, so no decision touches a float.

BLOCK_CELLS = 1 << 15  # committee x vote cells per temporary block


def integer_table(rule: AbccRule, terms: int) -> tuple[np.ndarray, int]:
    """The rule's scores scaled to exact integers: T[x, y] = scale * f(x, y).

    `scale` is the lcm of the table's denominators; cells outside the
    feasible domain hold 0. T is int64 or object as `scaled_integers`
    decides for sums of `terms` entries.
    """
    values, scale = scaled_integers(list(rule.table.values()), terms)
    table = np.zeros((rule.k + 1, rule.m + 1), dtype=values.dtype)
    table[tuple(zip(*rule.table))] = values
    return table, scale


def score_blocks(table: np.ndarray, m: int, cmasks, vmasks):
    """Yield (votes, S) with S[i, j] = table[|C_i ∩ V_j|, |V_j|].

    `votes` is the slice of `vmasks` that the block covers; every block
    holds all committees and as many votes as keep it within BLOCK_CELLS
    cells (at least one vote).
    """
    cwords = mask_words(cmasks, m)[:, :, None]
    step = max(1, BLOCK_CELLS // max(len(cmasks), 1))
    for lo in range(0, len(vmasks), step):
        votes = slice(lo, min(lo + step, len(vmasks)))
        vwords = mask_words(vmasks[votes], m)
        yield votes, table[popcount(cwords & vwords[:, None, :]), popcount(vwords)]


def committee_totals(table: np.ndarray, m: int, counts, cmasks) -> np.ndarray:
    """totals[i] = sum of count * table[|C_i ∩ S|, |S|] over a {vote mask S: count} tally.

    One product of the per-vote score blocks with the multiplicities of the
    distinct votes; `table` comes from `integer_table` for the tally's total count.
    """
    votes = list(counts)
    mult = np.array(list(counts.values()), dtype=table.dtype)
    totals = np.zeros(len(cmasks), dtype=table.dtype)
    for block, scores in score_blocks(table, m, cmasks, votes):
        totals += scores @ mult[block]
    return totals


def argmax_committees(rule: AbccRule, counts, cmasks) -> list[int]:
    """Committee masks of maximum total score over a {vote mask: count} tally.

    Returned in the order of `cmasks`; an empty tally makes every committee
    tie at zero.
    """
    table, _ = integer_table(rule, sum(counts.values()))
    totals = committee_totals(table, rule.m, counts, cmasks)
    return [cmasks[i] for i in np.flatnonzero(totals == totals.max())]


def group_score_sums(table: np.ndarray, m: int, cmasks, groups) -> np.ndarray:
    """sums[i, g] = sum of table[|C_i ∩ S|, |S|] over the votes S in group g.

    `groups[S]` labels every one of the 2^m votes with a group in
    0..G-1, each group non-empty. Votes are swept sorted by group, so a
    group is a run of columns that np.add.reduceat folds.
    """
    groups = np.asarray(groups)
    order = np.argsort(groups, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(groups))[:-1]))
    sums = np.zeros((len(cmasks), len(starts)), dtype=table.dtype)
    for block, scores in score_blocks(table, m, cmasks, order):
        first = np.searchsorted(starts, block.start, side="right") - 1
        stop = np.searchsorted(starts, block.stop, side="left")
        cuts = np.maximum(starts[first:stop], block.start) - block.start
        sums[:, first:stop] += np.add.reduceat(scores, cuts, axis=1)
    return sums


def gap_rows(rule: AbccRule, umask: int, vmasks, groups) -> tuple[np.ndarray, int]:
    """G[i, g] = scale * sum of f(U, S) - f(V_i, S) over the votes S in group g,
    with `groups` as `group_score_sums` takes it. The table is scaled for
    2^m terms, so every entry and every partial sum of a row is exact."""
    table, scale = integer_table(rule, 1 << rule.m)
    sums = group_score_sums(table, rule.m, [umask, *vmasks], groups)
    return sums[0] - sums[1:], scale


def winners(rule: AbccRule, profile: Profile) -> list[Committee]:
    """All committees of maximum total score, ties preserved.

    Returns the full argmax set in ascending bitmask order; an empty
    profile makes every committee tie at zero.
    """
    counts = _vote_counts(rule, profile)
    best = argmax_committees(rule, counts, committee_masks(rule.m, rule.k))
    return [Committee(AlternativeSet(mask, rule.m), rule.k) for mask in best]


# ---------------------------------------------------------------------------
# Overlap classes. A relabelling of the alternatives maps a (ground U, rival V)
# pair onto any other pair with the same overlap j = |U ∩ V|, and a vote S
# with it, so the votes of a pair fall into cells by their counts (a, b, c, d)
# in U ∩ V, U ∖ V, V ∖ U and the r = m - 2k + j other alternatives.

def _overlap_cells(f, m: int, k: int, j: int):
    """Yield (x, y, w, gap) per vote cell of a pair in class j: a vote S of the
    cell has x = |S ∩ U| and y = |S ∖ U|, w > 0 votes fall in it, and each
    scores U above V by gap = f[x][x + y] - f[xv][x + y], xv = |S ∩ V|, on the
    nested-list integer table f. Cells with x = xv, where every rule scores U
    and V alike, are left out."""
    r = m - 2 * k + j
    rest = binomial_row(r)
    for a in range(j + 1):
        for b in range(k - j + 1):
            for c in range(k - j + 1):
                if b == c:
                    continue
                w = comb(j, a) * comb(k - j, b) * comb(k - j, c)
                x, fu, fv = a + b, f[a + b], f[a + c]
                for s, wd in enumerate(rest, a + b + c):  # s = a + b + c + d
                    yield x, s - x, w * wd, fu[s] - fv[s]


def level_gap_rows(rule: AbccRule, levels, umask: int, vmasks) -> tuple[np.ndarray, int]:
    """G[i, t] = scale * sum of f(U, S) - f(V_i, S) over the votes S at level t
    of `levels`, the `metrics.LevelStructure` of the ground U. On the (x, y)
    grid of a signature metric or product model, each rival takes the row of
    its overlap class j = |U ∩ V|, summed over the class's `_overlap_cells` in
    Python integers; a set-indexed structure runs `gap_rows` over its levels."""
    if levels.cells is None:
        return gap_rows(rule, umask, vmasks, levels.level_of)
    table, scale = integer_table(rule, 1)
    f = table.tolist()
    overlaps = [(umask & vmask).bit_count() for vmask in vmasks]
    rows = {}
    for j in set(overlaps):
        row = rows[j] = [0] * len(levels.values)
        for x, y, w, gap in _overlap_cells(f, rule.m, rule.k, j):
            row[levels.cells[x][y]] += w * gap
    shape = len(vmasks), len(levels.values)
    return np.array([rows[j] for j in overlaps], dtype=object).reshape(shape), scale


def moving_classes(rule: AbccRule, on=None) -> set[int]:
    """The overlaps j whose pairs have a vote that scores U and V apart, in a
    cell (x, y) where `on[x][y]` holds (every cell without `on`).

    Swapping U ∖ V with V ∖ U maps the votes of a class onto themselves and
    negates every gap, so a class has a vote scoring U above V iff it has
    one with a non-zero gap. That search stops sooner: the walk starts on
    cells with |S ∩ U| < |S ∩ V|, where a rule non-decreasing in x has no
    positive gap."""
    m, k = rule.m, rule.k
    f = integer_table(rule, 1)[0].tolist()
    return {
        j for j in overlap_classes(m, k)
        if any(gap and (on is None or on[x][y]) for x, y, _, gap in _overlap_cells(f, m, k, j))
    }


def is_nontrivial(rule: AbccRule) -> Check:
    """Whether every ordered committee pair (U, V) has a separating vote.

    True iff for every pair of distinct k-committees there exists a vote S
    with sc(U, S) > sc(V, S). The pairs of an overlap class stand or fall
    together, as `moving_classes` decides them. On failure the witness is
    the first violating pair in ascending (U, V) mask order: the first
    committee, and the smallest rival of the largest failing overlap.
    """
    m, k = rule.m, rule.k
    check_classes(m, k)
    failing = set(overlap_classes(m, k)) - moving_classes(rule)
    if not failing:
        return Check(True)
    masks = (1 << k) - 1, first_rival(k, max(failing))
    return Check(False, tuple(Committee(AlternativeSet(c, m), k) for c in masks))


def has_top_jump(rule: AbccRule) -> bool:
    """Whether f(k, k) > f(k-1, k); vacuously true when m = k, where the
    (k-1, k) pair is infeasible."""
    k = rule.k
    return (k - 1, k) not in rule.table or rule.table[(k, k)] > rule.table[(k - 1, k)]


# ---------------------------------------------------------------------------
# Custom rule file format:
#   {"m": 4, "k": 2, "table": [{"x": 0, "y": 0, "score": "0"}, ...]}

def rule_to_json(rule: AbccRule) -> dict:
    doc = {
        "m": rule.m,
        "k": rule.k,
        "name": rule.name,
        "table": [
            {"x": x, "y": y, "score": frac_str(v)}
            for (x, y), v in sorted(rule.table.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        ],
    }
    if rule.name.startswith("p_geometric") or rule.name == "sainte_lague":
        doc["weights_convention"] = (
            "p_geometric: w_j = p^j; sainte_lague: w_j = 1/(2j-1)"
        )
    return doc


def rule_from_json(doc: dict) -> AbccRule:
    try:
        m, k = int(doc["m"]), int(doc["k"])
        table = {
            (int(row["x"]), int(row["y"])): parse_frac(str(row["score"]))
            for row in doc["table"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ProfileParseError(f"bad rule file: {exc}") from None
    return make_rule("custom", m, k, table=table)


def load_rule_file(path) -> AbccRule:
    return rule_from_json(read_json(path, "rule"))
