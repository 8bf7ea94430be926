"""Run one abcc command with the public functions of every layer traced.

Usage: python bench/shim.py SPANS_JSON -- <abcc arguments>

The shim imports abcc, replaces each public function of the layer modules
(core, rules, metrics, noise, oracle, experiments) with a timing wrapper
in every abcc module that imported it, wraps the two file writers of the
CLI's Runner, and then calls abcc.cli.main. A span is one call: its name
`<module>.<function>`, start, end, parent span and whether it returned
normally. Spans and counters stay in memory and are written to SPANS_JSON
when the command ends. The CLI's own command functions are not spans:
their time, with interpreter start, imports and argparse, is the
`cli.residual_s` the aggregator derives.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("core", "rules", "metrics", "noise", "oracle", "experiments")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent index or -1, returned)
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.memo: dict = {}  # facts about argument objects, keyed by id()
        self.refs: list = []  # keeps those objects alive so no id() is reused

    def add(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent, returned)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, fh)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Counters recorded at the layer boundaries, after the call returns.

def _verdict(tr, args, kwargs, result):
    pairs = len(result.pair_summaries)
    tr.add("oracle.pairs", pairs)
    tr.add("oracle.vote_evals", pairs << result.m)


def _level_structure(tr, args, kwargs, result):
    metric, ground = _arg(args, kwargs, 0, "metric"), _arg(args, kwargs, 1, "ground")
    key = ("level", id(metric), ground.mask)
    if key in tr.memo:
        tr.add("metrics.level_cache_hits")
    else:
        tr.memo[key] = True
        tr.refs.append(metric)
        tr.add("metrics.levels", len(result.values))


def _sample(tr, args, kwargs, result):
    tr.add("noise.votes_sampled", len(result))


def _score_from_counts(tr, args, kwargs, result):
    counts = _arg(args, kwargs, 2, "counts")
    key = ("votes", id(counts))
    total = tr.memo.get(key)
    if total is None:
        tr.refs.append(counts)
        total = tr.memo[key] = sum(counts.values())
    tr.add("rules.scored_votes", total)
    tr.add("rules.scored_distinct_votes", len(counts))


def _parse_profile(tr, args, kwargs, result):
    tr.add("core.votes_parsed", len(result[1]))


def _accuracy_trial(tr, args, kwargs, result):
    tr.add("experiments.trials", _arg(args, kwargs, 3, "trials"))


def _write(tr, args, kwargs, result):
    tr.add("cli.result_bytes", result.stat().st_size)


HOOKS = {
    "oracle.robustness_verdict": _verdict,
    "metrics.level_structure": _level_structure,
    "noise.sample_vote_masks": _sample,
    "rules.score_from_counts": _score_from_counts,
    "core.parse_profile": _parse_profile,
    "experiments.accuracy_trial": _accuracy_trial,
}


def install(tracer: Tracer) -> None:
    import abcc.cli

    modules = [m for name, m in sys.modules.items() if name == "abcc" or name.startswith("abcc.")]
    for layer in LAYERS:
        module = sys.modules[f"abcc.{layer}"]
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            traced = tracer.wrap(name, fn, HOOKS.get(name))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, traced)
    runner = abcc.cli.Runner
    runner.write_json = tracer.wrap("cli.write_json", runner.write_json)
    runner.write = tracer.wrap("cli.write", runner.write, _write)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    import abcc.cli

    try:
        return abcc.cli.main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
