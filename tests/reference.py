"""Brute-force Fraction loops over votes: the reference implementations that
the exact integer kernel in abcc.rules is checked against.

Each function sums per-vote scores f(|C ∩ S|, |S|) one vote at a time in
exact rational arithmetic, the way the library did before its sweeps ran
on integer-scaled numpy blocks.
"""

from __future__ import annotations

from fractions import Fraction

from abcc.core import committee_masks


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


def weighted_gap(rule, prob_table, umask, vmask):
    """(sum_S p(S) * gap(S), whether some S with p(S) > 0 has gap(S) != 0)."""
    total = Fraction(0)
    support_nonzero = False
    for s, prob in enumerate(prob_table):
        g = _gap(rule, umask, vmask, s)
        if g and prob:
            total += g * prob
            support_nonzero = True
    return total, support_nonzero


def direct_gap(rule, model, umask, vmask):
    """Exact expected score gap under a noise model's full probability table."""
    return weighted_gap(rule, model.prob_table(), umask, vmask)[0]


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
