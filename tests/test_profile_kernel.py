"""The profile paths that handle each distinct vote once, against the
one-line-at-a-time oracles in reference.py: parsing, formatting, scoring
and winners on generated profile texts full of repeated, reordered,
blank, commented and malformed lines; parsing in blocks of every size,
from a str and from a file, over every line boundary of `str.splitlines`;
the writer's line table against bit-by-bit labels; the traced memory of a
long profile read and written; and the CLI's `score` and `winners` on
malformed profile files, which must end with a documented exit code and
no traceback."""

import string
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from abcc import core
from abcc.core import (
    AlternativeSet,
    Committee,
    Profile,
    committee_masks,
    default_universe,
    format_vote_masks,
    parse_profile,
)
from abcc.errors import DomainMismatchError, ProfileParseError
from abcc.noise import make_mp, sample_profile, sample_vote_masks
from abcc.rules import integer_table, make_rule, profile_score, winners
from conftest import huge_rule, random_rule, run_cli

NAMES = ["a", "b", "c", "d", "e"]


@st.composite
def vote_lines(draw, names):
    """One line of a profile body: a vote with its labels in any order and
    spacing, a blank vote, a comment, or a line with an unknown or empty label."""
    kind = draw(st.sampled_from(["vote", "vote", "vote", "blank", "comment", "unknown", "empty"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    if kind == "comment":
        return draw(st.sampled_from(["# note", "#", "  # indented"]))
    labels = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
    labels = draw(st.permutations(labels))
    if kind == "unknown":
        labels = [*labels, "z"]
    if kind == "empty":
        labels = [*labels, ""]
    spaces = st.sampled_from(["", " ", "  "])
    return ",".join(draw(spaces) + label + draw(spaces) for label in labels)


@st.composite
def profile_texts(draw):
    """Profile text from a small pool of lines, so most lines repeat."""
    m = draw(st.integers(1, len(NAMES)))
    names = NAMES[:m]
    pool = draw(st.lists(vote_lines(names), min_size=1, max_size=6))
    body = draw(st.lists(st.sampled_from(pool), max_size=40))
    lead = draw(st.lists(st.sampled_from(["", "# lead", "  "]), max_size=2))
    header = "alternatives: " + draw(st.sampled_from([",", ", "])).join(names)
    header = draw(st.sampled_from([header] * 4 + ["alternatives: a, a", "alternatives:", "a,b"]))
    return "\n".join([*lead, header, *body]) + draw(st.sampled_from(["", "\n"]))


def parsed_or_error(parse, text):
    try:
        return parse(text)
    except ProfileParseError as exc:
        return type(exc), str(exc), exc.line


def boundary_rule(top):
    """m = 2, k = 1 rule whose largest scaled score is `top`."""
    return make_rule("custom", 2, 1, table={(0, 0): 0, (0, 1): 0, (1, 1): top, (1, 2): 1})


def assert_scores_match(rule, profile):
    m, k = rule.m, rule.k
    counts = Counter(vote.mask for vote in profile)
    for cmask in committee_masks(m, k):
        committee = Committee(AlternativeSet(cmask, m), k)
        assert profile_score(rule, committee, profile) == reference.profile_score(
            rule, committee, profile
        )
    expected = reference.winner_masks(rule, committee_masks(m, k), counts)
    assert [c.mask for c in winners(rule, profile)] == expected


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(profile_texts())
    @example("alternatives: a,b\na\nz\n")  # unknown label on its first occurrence
    @example("alternatives: a,b\na, b\nb,a\na,b,\n")  # empty label after a repeat
    @example("alternatives: a,b\n\n\na,b\nb,a\n b , a \nq\na,b\n")  # unknown label after repeats
    @example("# only a comment\n")
    @example("")
    @example("alternatives: a,b\n")
    def test_parse_and_format(self, text):
        got = parsed_or_error(parse_profile, text)
        assert got == parsed_or_error(reference.parse_profile, text)
        if isinstance(got[1], Profile):
            universe, profile = got
            text = "".join(format_vote_masks(universe, [vote.mask for vote in profile]))
            assert text == reference.format_profile(universe, profile)

    @settings(max_examples=150, deadline=None)
    @given(profile_texts(), st.integers(0, 2**32 - 1))
    def test_scores_and_winners(self, text, seed):
        try:
            universe, profile = parse_profile(text)
        except ProfileParseError:
            return
        m = universe.m
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, m + 1))
        for rule in [make_rule("pav", m, k), random_rule(m, k, rng), huge_rule(m, k)]:
            assert_scores_match(rule, profile)

    def test_repeats_share_one_vote(self):
        _, profile = parse_profile("alternatives: a,b,c\n" + "a,b\nb, a\n\nc\n" * 50)
        assert len(profile) == 200
        assert len({id(vote) for vote in profile}) == 4

    @pytest.mark.parametrize("n", [1, 3, 1000])
    def test_guard_boundary(self, n):
        # n votes {a}: the total n * top stays int64 just below 2^62 and
        # takes the object path at 2^62; 1000 * 2^61 would wrap in int64
        profile = Profile((AlternativeSet(0b01, 2),) * n)
        cases = [(((1 << 62) - 1) // n, np.int64), (-(-(1 << 62) // n), object)]
        if n == 1000:
            cases.append((1 << 61, object))
        for top, dtype in cases:
            rule = boundary_rule(top)
            assert integer_table(rule, n)[0].dtype == dtype
            assert_scores_match(rule, profile)
            committee = Committee(AlternativeSet(0b01, 2), 1)
            assert profile_score(rule, committee, profile).total == n * top

    @pytest.mark.parametrize("votes", [(AlternativeSet(0b101, 3),) * 2, ()])
    def test_domain_checked_once(self, votes):
        rule = make_rule("av", 3, 2)
        with pytest.raises(DomainMismatchError, match="committee"):
            profile_score(rule, Committee(AlternativeSet(0b1, 3), 1), Profile(votes))
        if votes:
            other = make_rule("av", 4, 2)
            with pytest.raises(DomainMismatchError, match="vote universe"):
                profile_score(other, Committee(AlternativeSet(0b11, 4), 2), Profile(votes))
            with pytest.raises(DomainMismatchError, match="vote universe"):
                winners(other, Profile(votes))

    def test_sample_profile_one_set_per_distinct_mask(self):
        model = make_mp(Fraction(3, 4), default_universe(6), Committee(AlternativeSet(0b11, 6), 2))
        profile = sample_profile(model, 500, seed=7)
        masks = sample_vote_masks(model, 500, np.random.default_rng(7))
        assert profile == Profile(tuple(AlternativeSet(mask, 6) for mask in masks))
        assert len({id(vote) for vote in profile}) == len(set(masks))


# ---------------------------------------------------------------------------
# Profile text read in blocks of lines, and written from a line table.

# every line boundary of str.splitlines that the tests draw, and a space
BOUNDARIES = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " "]
ATOMS = ["a", "b", "c", ",", ", ", "#", "z", "\t", *BOUNDARIES]


@st.composite
def separated_texts(draw):
    """Profile text whose lines, boundaries included, come from a small
    pool: votes, comments, blank, whitespace-only and malformed lines, with
    any boundary inside a line and between lines."""
    line = st.lists(st.sampled_from(ATOMS), max_size=6).map("".join)
    pool = draw(st.lists(line, min_size=1, max_size=5))
    header = st.sampled_from(["alternatives: a,b,c", "alternatives:a, b", "alternatives: a\x85b"])
    header = draw(header)
    lines = [*draw(st.lists(st.sampled_from(["", "# lead", " "]), max_size=2)), header]
    lines += draw(st.lists(st.sampled_from(pool), max_size=30))
    ends = draw(st.lists(st.sampled_from(BOUNDARIES), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[: len(text) - draw(st.integers(0, 2))]


@settings(max_examples=300, deadline=None)
@given(separated_texts(), st.integers(1, 64))
@example("alternatives: a\r\na\r\n\r\nz\r\n", 2)  # a read that ends between \r and \n
@example("# x\n\n" * 20 + "alternatives: a\nb\n", 1)  # the header in a later block
def test_blocked_parse_matches_whole_text_parse(text, block):
    expected = parsed_or_error(reference.parse_profile, text)
    with mock.patch.object(core, "DRAW_BLOCK_CELLS", block), tempfile.TemporaryDirectory() as tmp:
        assert parsed_or_error(parse_profile, text) == expected
        path = Path(tmp) / "votes.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8", newline="") as stream:
            assert parsed_or_error(parse_profile, stream) == expected


@pytest.mark.parametrize("m", [1, 4, 8, 9, 12, 13, 16, 17, 62, 63, 64, 70])
@pytest.mark.parametrize("small_blocks", [False, True])
def test_writer_matches_bit_by_bit_labels(m, small_blocks, monkeypatch):
    # the line table serves m <= 12 at the default block, m = 1 at blocks of 7 votes
    if small_blocks:
        monkeypatch.setattr(core, "DRAW_BLOCK_CELLS", 7 * m)
    universe, rng = default_universe(m), np.random.default_rng(m)
    masks = [int.from_bytes(rng.bytes(9)) % (1 << m) for _ in range(500)]
    masks += [0, (1 << m) - 1, 1 << (m - 1), *masks[:50]]
    expected = "".join(reference.format_vote_masks(universe, masks))
    assert "".join(format_vote_masks(universe, masks)) == expected
    if m <= 63:
        assert "".join(format_vote_masks(universe, np.array(masks, dtype=np.int64))) == expected


def traced_peak(run):
    """The traced peak of `run()`, in bytes, and what it returned."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """A long profile is read and written in memory bounded by its distinct
    votes: a tuple of its votes, one block of text and its distinct lines."""

    @pytest.mark.parametrize("argv", [
        ["winners", "--rule", "pav", "--k", "2"],
        ["score", "--rule", "pav", "--committee", "a,b"],
    ])
    def test_long_profile_read(self, argv, tmp_path):
        # 200,000 lines, 5 distinct: about 3.2 MiB traced, where holding the
        # text, a list of its lines and a list of its masks took 11.7 MiB
        path = tmp_path / "votes.txt"
        path.write_text("alternatives: a,b,c,d,e,f\n" + "a,b\nc\n\nd,e,f\na,c,e\n" * 40_000)
        argv = [*argv, "--profile", str(path)]
        expected = run_cli(argv)
        peak, result = traced_peak(lambda: run_cli(argv))
        assert result == expected and result[0] == 0
        assert peak < 6.5 * 2**20

    def test_long_profile_written(self):
        # m = 16, 2^17 votes: about 0.75 MiB traced; a sort per block and a
        # line cache kept for later blocks took 8.1 MiB
        universe = default_universe(16)
        masks = np.random.default_rng(3).integers(0, 1 << 16, size=1 << 17)
        peak, pieces = traced_peak(lambda: sum(1 for _ in format_vote_masks(universe, masks)))
        assert pieces == 1 + (1 << 17) // (core.DRAW_BLOCK_CELLS // 16)
        assert peak < 2 * 2**20


# ---------------------------------------------------------------------------
# The CLI on malformed profile files.

LABELS = st.sampled_from(["a", "b", "c", "d", "e", "f", "x y", "é", "#", ""])


@st.composite
def profile_files(draw):
    """Profile file bytes: raw bytes, or text with any header (duplicate,
    empty or missing labels) and votes over those labels and others."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=80))
    labels = draw(st.lists(LABELS, max_size=8))
    header = draw(st.sampled_from(["alternatives:", "alternatives: ", "alternative:", ""]))
    lines = [header + ",".join(labels)]
    lines += draw(st.lists(
        st.lists(LABELS, max_size=4).map(",".join) | st.text(max_size=8), max_size=12
    ))
    return "\n".join(lines).encode("utf-8")


RULES = st.sampled_from(["av", "cc", "pav", "sav", "mc", "thiele", "special6_f", "p_geometric"])


@settings(max_examples=200, deadline=None)
@given(
    profile_files(),
    RULES,
    st.integers(-1, 9),
    st.lists(st.sampled_from(string.ascii_lowercase[:6]), min_size=1, max_size=4),
)
def test_cli_fuzz_profile_files(data, rule, k, committee):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "votes.txt"
        path.write_bytes(data)
        for argv in (
            ["winners", "--rule", rule, "--k", str(k), "--profile", str(path)],
            ["score", "--rule", rule, "--committee", ",".join(committee), "--profile", str(path)],
        ):
            code, out, err = run_cli(argv)
            assert code in {0, 2, 3}, (argv, err)
            assert "Traceback" not in err
            if code:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
