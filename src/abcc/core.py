"""Ground representations: alternatives, subsets, committees, profiles.

Alternative sets are bit-indexed against a fixed universe order, so that
set equality, intersection, and difference are single integer operations.
Everything downstream (rules, metrics, noise models, oracles) works on
these masks; labels exist for I/O only.
"""

from __future__ import annotations

import functools
import json
import operator
import string
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    CapExceededError,
    InvalidCommitteeSizeError,
    ProfileParseError,
)

# The limits of exact enumeration. Each has one check (check_sets,
# check_committees, check_matrix, check_classes) that every exhaustive sweep
# calls on entry, before it allocates anything; sampling paths are not
# subject to them.
MAX_M = 16  # all 2^m sets
MAX_COMMITTEES = 100_000  # all C(m, k) committees
# The work of a signature-metric verdict and of the nontriviality check: the
# vote cells of the overlap classes of committee pairs, each weighed by the
# size of its vote count (see check_classes): 5-15 s on one CPU at the cap.
MAX_CLASS_WORK = 1 << 25
# A signature-metric verdict lists one row per ordered committee pair up to
# this many pairs (every m <= 8 grid has at most 4,830), one per class above.
MAX_PAIR_ROWS = 1 << 13
# Cells of a full 2^m x 2^m distance matrix (m <= 12): one int64 copy is
# 128 MiB here, and a table metric's triangle check is cubic in 2^m.
MAX_MATRIX_CELLS = 4**12
# The limit of sampling, checked by check_draws: vote x alternative cells of
# one draw. A draw holds one block of DRAW_BLOCK_CELLS floats (512 KiB), 8
# bytes per vote for the masks (m <= 62) and the profile text of one block:
# `sample` at the cap peaks at 61 MiB for m = 16 (n = 2^21) and 101 MiB for
# m = 4 (n = 2^23), where one float per cell of the whole draw took 596 and
# 644 MiB.
MAX_DRAW_CELLS = 1 << 25
DRAW_BLOCK_CELLS = 1 << 16  # vote x alternative cells drawn or labelled at once

# The names the CLI lists in its help and manifest, kept here so that
# building the parser loads no layer; rules, metrics and noise re-export them.
RULE_KINDS = (
    "av",
    "cc",
    "pav",
    "sav",
    "mc",
    "thiele",
    "p_geometric",
    "sainte_lague",
    "special6_f",
    "special6_fprime",
    "custom",
)
METRIC_KINDS = (
    "set_difference",
    "jaccard",
    "zelinka",
    "bunke_shearer",
    "trivial",
    "example2",
    "custom",
)
RNG_SCHEME = "numpy-pcg64; per-trial streams via SeedSequence(seed).spawn"


class Frozen:
    """A value that cannot change, as a frozen dataclass: assignment raises
    AttributeError. A subclass names its fields once, in `__slots__`, or in
    `_fields` if it keeps a `__dict__` for a cached property. Its `__init__`
    takes them in that order and sets them past `__setattr__`. Their values,
    `_values()`, decide equality (within the class only), hashing and
    copying; the repr is `Name(field=value, ...)` in field order.

    Two classes write one of these out: `NoiseModel._values` puts the level
    partition in place of `metric` and `levels`, so that equality and hashing
    ignore the distance values, and `LevelStructure.__repr__` leaves out
    `sets`, one level per set."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = vars(cls).get("__slots__") or cls._fields
        get = operator.attrgetter(*fields)  # a single field comes back bare, not as a 1-tuple
        cls._get = get if len(fields) > 1 else staticmethod(lambda value: (get(value),))

    def _values(self):
        return self._get(self)

    def __repr__(self):
        fields = zip(self._fields, self._get(self))
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


_set = object.__setattr__


class Universe(Frozen):
    """A fixed, totally ordered set of m distinctly labeled alternatives."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        # m = 0 is allowed for the degenerate power-set {empty set}
        if not all(isinstance(name, str) for name in names):
            raise ValueError("alternative labels must be strings")
        if len(set(names)) != len(names):
            raise ValueError("alternative labels must be pairwise distinct")
        _set(self, "names", names)

    @property
    def m(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown alternative {name!r}") from None

    def set_of(self, names) -> AlternativeSet:
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return AlternativeSet(mask, self.m)


def default_universe(m: int) -> Universe:
    """Universe with labels a, b, c, ... for quick construction."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if m <= 26:
        return Universe(tuple(string.ascii_lowercase[:m]))
    return Universe(tuple(f"x{i}" for i in range(m)))


@functools.total_ordering
class AlternativeSet(Frozen):
    """A subset of the universe, stored as a bitmask of member indices;
    ordered by (mask, m)."""

    __slots__ = ("mask", "m")

    def __init__(self, mask: int, m: int):
        if mask < 0 or mask >> m:
            raise ValueError(f"mask {mask:#x} has bits outside 0..{m - 1}")
        _set(self, "mask", mask)
        _set(self, "m", m)

    def __lt__(self, other):
        return self._values() < other._values() if type(other) is type(self) else NotImplemented

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.m) if self.mask >> i & 1)

    def labels(self, universe: Universe) -> tuple[str, ...]:
        return tuple(universe.names[i] for i in self.indices())

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.indices())


@functools.total_ordering
class Committee(Frozen):
    """An alternative set of exactly k members; ordered by (members, k)."""

    __slots__ = ("members", "k")

    def __init__(self, members: AlternativeSet, k: int):
        if k <= 0:
            raise InvalidCommitteeSizeError(f"k must be positive, got {k}")
        if members.size != k:
            raise InvalidCommitteeSizeError(
                f"committee has {members.size} members, expected k={k}"
            )
        _set(self, "members", members)
        _set(self, "k", k)

    __lt__ = AlternativeSet.__lt__  # on _values(), within the class

    @property
    def mask(self) -> int:
        return self.members.mask

    @property
    def m(self) -> int:
        return self.members.m

    def labels(self, universe: Universe) -> tuple[str, ...]:
        return self.members.labels(universe)


class Profile(Frozen):
    """An ordered list of approval votes; votes may repeat, empty votes allowed."""

    __slots__ = ("votes",)

    def __init__(self, votes: tuple[AlternativeSet, ...]):
        if len({v.m for v in votes}) > 1:
            raise ValueError("all votes must live in the same universe")
        _set(self, "votes", votes)

    def __iter__(self):
        return iter(self.votes)

    def __len__(self) -> int:
        return len(self.votes)


class Check(NamedTuple):
    """A yes/no answer and, when it is no, the witness that refutes it;
    falsy when the check fails."""

    ok: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_k(m: int, k: int) -> None:
    if k <= 0 or k > m:
        raise InvalidCommitteeSizeError(f"need 0 < k <= m, got k={k}, m={m}")


def feasible_pairs(m: int, k: int) -> frozenset[tuple[int, int]]:
    """The domain X of score-table arguments for committee size k among m:
    every (x, y) = (|committee ∩ vote|, |vote|) realizable at (m, k).

    For each vote size y in 0..m the overlap x ranges over
    max(k + y - m, 0) .. min(y, k).
    """
    check_k(m, k)
    return frozenset(
        (x, y)
        for y in range(m + 1)
        for x in range(max(k + y - m, 0), min(y, k) + 1)
    )


def binomial_row(n: int) -> list[int]:
    """[C(n, 0), C(n, 1), ..., C(n, n)], each entry from the one before."""
    row = [1]
    for d in range(n):
        row.append(row[-1] * (n - d) // (d + 1))
    return row


def check_sets(m: int) -> None:
    """Refuse a sweep over all 2^m sets when m exceeds MAX_M."""
    if m > MAX_M:
        raise CapExceededError(f"m={m}: enumerating all 2^m sets is capped at m <= {MAX_M}")


def check_matrix(m: int) -> None:
    """Refuse a full 2^m x 2^m distance matrix over MAX_MATRIX_CELLS cells."""
    # 4^m > MAX_MATRIX_CELLS, decided without building 4^m (m may be huge)
    if 2 * m >= MAX_MATRIX_CELLS.bit_length():
        raise CapExceededError(
            f"m={m}: the full distance matrix has 4^{m} cells, over {MAX_MATRIX_CELLS}"
        )


def check_classes(m: int, k: int) -> None:
    """Refuse a sweep over the overlap classes j of (m, k) committee pairs
    whose work exceeds MAX_CLASS_WORK. Class j has (j+1)(k-j+1)^2(r+1) vote
    cells, r = m - 2k + j, and each cell weighs 1 + r // 64, the 64-bit words
    of its vote counts C(r, d) < 2^r. A k outside 0..m is left to `check_k`."""
    work = 0
    for j in range(max(0, 2 * k - m), k):
        r = m - 2 * k + j
        work += (j + 1) * (k - j + 1) ** 2 * (r + 1) * (1 + r // 64)
        if work > MAX_CLASS_WORK:
            raise CapExceededError(
                f"m={m}, k={k}: the overlap classes weigh more than "
                f"{MAX_CLASS_WORK} vote cell words, the cap"
            )


def check_draws(votes: int, m: int) -> None:
    """Refuse one draw of `votes` votes over m alternatives when the votes x m
    cells exceed MAX_DRAW_CELLS; a negative count is left to its own check."""
    cells = max(votes, 0) * max(m, 0)
    if cells > MAX_DRAW_CELLS:
        raise CapExceededError(
            f"{votes} votes over m={m} alternatives are {cells} cells; "
            f"sampling is capped at {MAX_DRAW_CELLS}"
        )


def check_committees(m: int, k: int) -> None:
    """Refuse a sweep over the C(m, k) committees when there are more than
    MAX_COMMITTEES; a k outside 0..m is left to `check_k`."""
    count = comb(m, k) if 0 <= k <= m else 0
    if count > MAX_COMMITTEES:
        raise CapExceededError(f"C({m},{k})={count} exceeds committee cap {MAX_COMMITTEES}")


def committee_masks(m: int, k: int) -> list[int]:
    """Raw bitmasks of all size-k committees, ascending; refused when
    C(m, k) exceeds MAX_COMMITTEES. It never lists the 2^m sets, so m
    itself is not capped here."""
    check_k(m, k)
    check_committees(m, k)
    return sorted(sum(1 << i for i in combo) for combo in combinations(range(m), k))


def overlap_classes(m: int, k: int) -> range:
    """The overlaps j = |U ∩ V| of two distinct k-committees among m alternatives."""
    return range(max(0, 2 * k - m), k)


def first_rival(k: int, j: int) -> int:
    """The smallest committee mask that meets the first one, 2^k - 1, in j members."""
    return (1 << j) - 1 | ((1 << (k - j)) - 1) << k


# ---------------------------------------------------------------------------
# Exact rationals: integer scaling for the numpy kernels, and the "p/q"
# formatting shared across file formats and the CLI.

_INT64_LIMIT = 1 << 62


def scaled_integers(values, terms: int = 1) -> tuple[np.ndarray, int]:
    """Rationals as exact integers over the lcm of their denominators.

    Returns (A, scale) with A = scale * values, in the shape of the
    (nested) list `values`. A is int64 when max|A| * terms < 2^62, so that
    any sum of `terms` entries, and the difference of two such sums, stays
    exact; otherwise A holds Python ints (dtype object) and the same numpy
    code runs in arbitrary precision.
    """
    grid = np.asarray(values, dtype=object)
    flat = grid.ravel().tolist()
    scale = lcm(*(v.denominator for v in flat))
    ints = np.array([v.numerator * (scale // v.denominator) for v in flat], dtype=object)
    return int64_if_fits(ints.reshape(grid.shape), terms), scale


def int64_if_fits(ints: np.ndarray, terms: int = 1) -> np.ndarray:
    """Exact integers as int64 when max|ints| * terms < 2^62, else as
    Python ints (dtype object); the guard of `scaled_integers`."""
    fits = int(np.abs(ints).max(initial=0)) * max(terms, 1) < _INT64_LIMIT
    return ints.astype(np.int64 if fits else object, copy=False)


def frac_str(value: Fraction | int, approx: bool = False) -> str:
    """Canonical "p/q" string; plain integer string when q = 1; with
    `approx`, the repr of the nearest float instead."""
    if approx:
        return repr(float(value))
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_frac(text: str) -> Fraction:
    """Parse "p/q" or a plain integer string into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ProfileParseError(f"bad rational {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Popcount over masks of any width, as numpy arrays of 63-bit words.

_WORD = 63


def mask_words(masks, m: int) -> np.ndarray:
    """The masks' 63-bit words as int64, shape (ceil(m / 63), *shape of
    masks); a mask of up to 63 bits is one word.

    Masks wider than 63 bits stay Python ints until they are split.
    """
    if m <= _WORD:
        return np.asarray(masks, dtype=np.int64)[None]
    arr = np.asarray(masks, dtype=object)
    low = (1 << _WORD) - 1
    return np.array([(arr >> shift) & low for shift in range(0, m, _WORD)], dtype=np.int64)


def popcount(words) -> np.ndarray:
    """Set bits per mask from its words (axis 0), as int64, so that
    arithmetic on the counts (such as signature codes) cannot wrap."""
    return np.bitwise_count(words).sum(axis=0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Input files: text that is not UTF-8, or JSON that does not parse, is a
# ProfileParseError (exit 2) like any other malformed input.

def read_text(path) -> str:
    """The UTF-8 text of a file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ProfileParseError(f"{path} is not UTF-8 text: {exc}") from None


def read_json(path, what: str):
    """The JSON document in a UTF-8 file; `what` names the file in errors."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ProfileParseError(f"bad JSON in {what} file: {exc}") from None


# ---------------------------------------------------------------------------
# Profile text format.
#
#   # comment
#   alternatives: a,b,c
#   a,b
#   <blank line>        (an empty vote)
#   c

def parse_profile(text: str) -> tuple[Universe, Profile]:
    """Parse the one-vote-per-line profile format.

    The first non-comment line must declare the universe
    ("alternatives: a,b,c"); every following line is a vote, a blank
    line being the empty vote. Lines starting with '#' are ignored.
    Each distinct line is parsed once, and its repeats share that vote.

    Raises
    ------
    ProfileParseError
        With the 1-based number of the first offending line.
    """
    lines = list(map(str.strip, text.splitlines()))
    for start, line in enumerate(lines, start=1):
        if line and not line.startswith("#"):
            break
    else:
        raise ProfileParseError("missing 'alternatives:' header")
    if not line.startswith("alternatives:"):
        raise ProfileParseError("expected header 'alternatives: ...' before any votes", line=start)
    names = [t for t in (t.strip() for t in line[len("alternatives:"):].split(",")) if t]
    if not names:
        raise ProfileParseError("empty alternatives declaration", line=start)
    try:
        universe = Universe(tuple(names))
    except ValueError as exc:
        raise ProfileParseError(str(exc), line=start) from None
    body = lines[start:]
    index = {name: i for i, name in enumerate(names)}
    # Distinct lines in order of first occurrence, so the first one that
    # fails is the first bad line of the file; comments map to None.
    votes = {}
    for line in dict.fromkeys(body):
        if line.startswith("#"):
            votes[line] = None
            continue
        tokens = [t.strip() for t in line.split(",")] if line else []
        bad = next((t for t in tokens if t not in index), None)
        if bad is not None:
            message = f"unknown alternative {bad!r}" if bad else "empty label in vote"
            raise ProfileParseError(message, line=start + body.index(line) + 1)
        votes[line] = AlternativeSet(sum({1 << index[t] for t in tokens}), universe.m)
    parsed = map(votes.__getitem__, body)
    return universe, Profile(tuple(vote for vote in parsed if vote is not None))


def format_vote_masks(universe: Universe, masks):
    """Yield the profile text of `parse_profile` for votes given as masks:
    the header line, then the lines of one block of votes at a time. Each
    distinct vote of a block is labelled once, read off its binary digits;
    lines are kept for later blocks, up to DRAW_BLOCK_CELLS of them."""
    names, m = universe.names, universe.m
    yield "alternatives: " + ",".join(names) + "\n"
    masks = np.asarray(masks, dtype=np.int64 if m < 64 else object)
    lines = {}
    step = max(1, DRAW_BLOCK_CELLS // max(m, 1))
    for lo in range(0, len(masks), step):
        distinct, inverse = np.unique(masks[lo : lo + step], return_inverse=True)
        distinct = distinct.tolist()
        if len(lines) > DRAW_BLOCK_CELLS:
            lines.clear()
        for mask in distinct:
            if mask not in lines:
                bits = bin(mask)[:1:-1]
                lines[mask] = ",".join([n for n, bit in zip(names, bits) if bit == "1"]) + "\n"
        yield "".join(np.array([lines[mask] for mask in distinct], dtype=object)[inverse].tolist())
