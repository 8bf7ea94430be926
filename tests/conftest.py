import contextlib
import io
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from abcc.cli import main
from abcc.core import AlternativeSet, Committee, Profile, default_universe, feasible_pairs
from abcc.metrics import DistanceMetric, level_structure
from abcc.noise import make_level_model
from abcc.rules import make_rule


def random_rule(m, k, rng, max_step=3):
    """Random valid rule: per vote size, a non-decreasing non-negative run."""
    table = {}
    by_y = {}
    for x, y in sorted(feasible_pairs(m, k)):
        by_y.setdefault(y, []).append(x)
    for y, xs in by_y.items():
        value = Fraction(int(rng.integers(0, 3)), 2)
        for x in xs:
            value += Fraction(int(rng.integers(0, max_step + 1)), 2)
            table[(x, y)] = value
    return make_rule("custom", m, k, table=table)


def huge_rule(m, k):
    """Scores near 2^70 with mixed denominators: the scaled table cannot be int64."""
    table = {
        (x, y): Fraction(x * (1 << 70) + y, 3 if y % 2 else 7)
        for x, y in feasible_pairs(m, k)
    }
    return make_rule("custom", m, k, table=table)


def random_strict_model(metric, ground, rng, zero_tail=False):
    """Random strictly decreasing level model, exactly normalized."""
    levels = level_structure(metric, ground)
    increments = [int(v) for v in rng.integers(1, 6, size=levels.spn + 1)]
    weights = []
    acc = 0 if zero_tail else int(rng.integers(1, 4))
    for inc in increments:
        weights.append(acc)
        acc += inc
    weights = weights[::-1]
    if zero_tail:
        weights[-1] = 0
    total = sum(w * size for w, size in zip(weights, levels.sizes))
    return make_level_model(metric, ground, [Fraction(w, total) for w in weights])


def table_form(metric):
    """The metric as a table over all unordered pairs of sets."""
    table = {(a, b): metric.d(a, b) for a, b in combinations(range(1 << metric.m), 2)}
    return DistanceMetric(metric.name, metric.m, table=table)


def random_profile(m, n, rng):
    votes = tuple(AlternativeSet(int(v), m) for v in rng.integers(0, 1 << m, size=n))
    return Profile(votes)


def run_cli(argv):
    """(exit code, stdout, stderr) of `abcc.cli.main(argv)`; an exception
    that escapes main is raised, as it would end the command in a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def committee_of(universe, names):
    members = universe.set_of(names)
    return Committee(members, members.size)


@pytest.fixture
def u3():
    return default_universe(3)


@pytest.fixture
def u4():
    return default_universe(4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
