"""Seeded input generators for the benchmark.

Everything here depends only on the standard library and numpy, never on
abcc itself, so the inputs a run feeds to the program do not change when
the program does. Each generator takes a numpy Generator derived from the
workload seed; the same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import string
from fractions import Fraction
from math import comb

import numpy as np


def labels(m: int) -> list[str]:
    """The labels abcc's default universe uses: a, b, c, ..."""
    if m > 26:
        raise ValueError("generated inputs use single-letter labels (m <= 26)")
    return list(string.ascii_lowercase[:m])


def frac_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def random_table_metric(m: int, rng: np.random.Generator, name: str) -> dict:
    """Custom metric document with every off-diagonal entry in {1, 9/8, ..., 2}.

    Any such table satisfies the triangle inequality (1 + 1 >= 2), so the
    file is always a valid metric, and its entries depend on the
    alternatives themselves, so every taxonomy flag but is_metric fails.
    """
    names = labels(m)
    n = 1 << m
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    eighths = rng.integers(0, 9, size=len(pairs))
    entries = [
        {
            "x": [names[i] for i in range(m) if a >> i & 1],
            "y": [names[i] for i in range(m) if b >> i & 1],
            "d": frac_text(1 + Fraction(int(e), 8)),
        }
        for (a, b), e in zip(pairs, eighths)
    ]
    return {"kind": "custom", "name": name, "m": m, "alternatives": names, "entries": entries}


def set_difference_level_probs(m: int, rng: np.random.Generator) -> list[Fraction]:
    """Strictly decreasing probabilities for the m+1 set-difference levels.

    Level t holds the C(m, t) sets at symmetric-difference distance t from
    the ground committee; the weights are random positive integers,
    strictly decreasing in t, normalized exactly with Fraction.
    """
    increments = [int(v) for v in rng.integers(1, 6, size=m + 1)]
    weights = np.cumsum(increments[::-1]).tolist()[::-1]
    total = sum(w * comb(m, t) for t, w in enumerate(weights))
    return [Fraction(w, total) for w in weights]


def level_model(m: int, k: int, rng: np.random.Generator) -> tuple[dict, list[Fraction]]:
    """Level-model document over the set-difference metric, ground a..k."""
    probs = set_difference_level_probs(m, rng)
    names = labels(m)
    doc = {
        "type": "level",
        "alternatives": names,
        "ground": names[:k],
        "metric": {"kind": "set_difference", "m": m},
        "probs": [frac_text(p) for p in probs],
    }
    return doc, probs


def uniform_masks(m: int, n: int, rng: np.random.Generator, distinct: bool = False) -> list[int]:
    """n votes, each alternative approved with probability 1/2.

    With `distinct`, the votes are n different subsets drawn without
    replacement, so no vote repeats.
    """
    if distinct:
        return [int(v) for v in rng.choice(1 << m, size=n, replace=False)]
    return [int(v) for v in rng.integers(0, 1 << m, size=n)]


def concentrated_masks(m: int, n: int, pool: int, rng: np.random.Generator) -> list[int]:
    """n votes drawn from `pool` distinct subsets with Zipf-like weights,
    so few distinct votes carry most of the profile."""
    base = rng.choice(1 << m, size=pool, replace=False)
    weights = 1.0 / np.arange(1, pool + 1)
    picks = rng.choice(pool, size=n, p=weights / weights.sum())
    return [int(base[i]) for i in picks]


def profile_text(m: int, masks: list[int]) -> str:
    """abcc's profile format: a header line, then one vote per line
    (a blank line is the empty vote)."""
    names = labels(m)
    lines = ["alternatives: " + ",".join(names)]
    lines += [",".join(names[i] for i in range(m) if v >> i & 1) for v in masks]
    return "\n".join(lines) + "\n"


def dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"
