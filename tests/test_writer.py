"""The CLI's JSON writer against `json.dumps(doc, indent=2, sort_keys=True)`
(reference.pretty_json) on generated documents: escapes of every kind,
empty and nested containers, tuples, one list object at several depths,
booleans next to 0 and 1, integers past 64 bits, None and floats."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from abcc.cli import _pretty_json

TEXT = st.text(st.sampled_from('ab"\\/\x00\x1f\x7f\t\né \U0001f600'), max_size=6) | st.text(
    max_size=6
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, -1, 2**64, -(2**64) - 1, 10**30])
    | st.integers()
    | st.floats()
    | st.sampled_from([0.0, -0.0, 1e300, 5e-324, math.inf, -math.inf, math.nan])
    | TEXT
)


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
    )


DOCS = st.recursive(SCALARS, containers, max_leaves=25)


@st.composite
def sharing(draw):
    """A document that holds one list object at several places and depths."""
    shared = draw(st.lists(DOCS, max_size=3))
    doc = {"a": shared, "b": [shared, {"c": shared}], "d": [[shared], shared]}
    doc.update(draw(st.dictionaries(TEXT, DOCS, max_size=2)))
    return doc


@settings(max_examples=300, deadline=None)
@given(DOCS | sharing())
@example({})
@example([])
@example([[], {}, (), [[]], {"": {}}])
@example({"b": [True, 1, False, 0], "a": [None, 1.0, 2**70, -3]})
@example({"é": "\x00\"\\\n \U0001f600"})
def test_writer_matches_json_dumps(doc):
    assert _pretty_json(doc) == reference.pretty_json(doc)
