"""The CLI on malformed rule, metric and model files.

Valid documents (a rule, full-table, default-table and builtin metrics,
product and level models) are mutated at random places: keys deleted,
values replaced by wrong types, unknown kinds, duplicate or unknown labels,
bad rationals, non-positive defaults and negative or huge universe sizes.
Each file goes through `abcc.cli.main` (`robust --rule-file`,
`check-metric --metric-file`, `sample --model-file`), which must end with
a documented exit code, no traceback and, on failure, one short error line.
"""

import copy
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from abcc.core import default_universe
from abcc.metrics import make_metric, metric_to_json, random_metric
from abcc.noise import jump_counterexample, make_mp, model_to_json, staggered_level_model
from abcc.rules import make_rule, rule_to_json
from conftest import committee_of, run_cli

U3 = default_universe(3)
DEFAULT_TABLE = {
    "kind": "custom", "m": 3, "default": "2",
    "entries": [{"x": ["a"], "y": ["b", "c"], "d": "1"}, {"x": [], "y": ["a"], "d": "3/2"}],
}
RULES = [rule_to_json(make_rule("pav", 3, 2))]
METRICS = [metric_to_json(random_metric(3, seed=1)), DEFAULT_TABLE, {"kind": "jaccard", "m": 3}]
MODELS = [
    model_to_json(make_mp(Fraction(3, 4), U3, committee_of(U3, ["a", "b"]))),
    model_to_json(jump_counterexample(make_rule("cc", 3, 1)).model),
    model_to_json(staggered_level_model(make_metric("zelinka", 3), committee_of(U3, ["c"]))),
]
COMMANDS = {
    "rule": (RULES, ["robust", "--metric", "jaccard", "--m", "3", "--k", "2", "--rule-file"]),
    "metric": (METRICS, ["check-metric", "--m", "3", "--metric-file"]),
    "model": (MODELS, ["sample", "--n", "5", "--seed", "1", "--model-file"]),
}

KEYS = ["m", "k", "kind", "type", "default", "alternatives", "ground", "p", "probs", "table",
        "entries", "x", "y", "d", "score", "metric"]
VALUES = st.sampled_from([
    None, True, 0, 1, -1, 1.5, 2_000_000, 10**12, "", "x", "0", "-1", "-1/3", "1/0", "1/2/3",
    "nosuch", "jaccard", "custom", "level", [], {}, ["a", "a"], ["zz"], ["a", "zz"],
]).map(copy.deepcopy)


def nodes(doc, path=()):
    """Every (path, value) in the document, the root first."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from nodes(value, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, bases):
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(nodes(doc))))
        action = draw(st.sampled_from(["set", "replace", "delete", "repeat"]))
        if action == "set" and isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = draw(VALUES)
        elif action == "repeat" and isinstance(node, list) and node:
            node.append(copy.deepcopy(node[draw(st.integers(0, len(node) - 1))]))
        elif path and action in ("replace", "delete"):
            parent = at(doc, path[:-1])
            if action == "replace":
                parent[path[-1]] = draw(VALUES)
            else:
                del parent[path[-1]]
    return doc


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda what: st.tuples(st.just(what), mutated(COMMANDS[what][0]))
))
# a metric table over the matrix budget ended in a traceback, after 2M labels
@example(("metric", {"m": 2000000, "entries": []}))
# a short rule table over a huge m ran for seconds and printed every missing pair
@example(("rule", {"m": 2000000, "k": 1, "table": []}))
@example(("metric", {**DEFAULT_TABLE, "default": "0"}))
@example(("metric", {**DEFAULT_TABLE, "m": -1}))
# a table over another m than --m, with a witness that holds a label --m lacks
@example(("metric", {"m": 4, "default": "1", "entries": [{"x": ["d"], "y": ["b"], "d": "3"}]}))
def test_cli_fuzz_input_files(case):
    what, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{what}.json"
        path.write_text(json.dumps(doc))
        argv = COMMANDS[what][1] + [str(path), "--out", tmp]
        code, out, err = run_cli(argv)
    assert code in {0, 2, 3, 4, 5, 6}, (doc, err)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (doc, err)
        assert len(err.encode()) < 4096
