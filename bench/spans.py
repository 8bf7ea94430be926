"""Turn the spans one traced command wrote into per-layer numbers.

A span's self time is its duration minus the part of its interval that
its children cover. A command's `cli.residual_s` is its wall time, as the
benchmark measured it from outside, minus the part the top-level spans
cover: interpreter start, imports, argparse, the CLI's own code and the
manifest. Self times plus the residual must add up to the wall time; a
tracer that mis-parents spans breaks that sum.
"""

from __future__ import annotations

from collections import defaultdict


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of each span, in input order.

    `spans` holds (name id, start, end, parent index or -1, returned).
    """
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered(children[i], start, end) for i, (_, start, end, _, _) in enumerate(spans)]


def command_profile(doc: dict, wall_s: float) -> dict:
    """Per-span-name self time, calls and errors for one traced command,
    its counters, and the residual. Raises ValueError when self times and
    residual do not add up to the wall time."""
    names, spans = doc["names"], doc["spans"]
    selfs = self_times(spans)
    per_name: dict[str, dict] = {}
    for (nid, _, _, _, returned), self_s in zip(spans, selfs):
        entry = per_name.setdefault(names[nid], {"self_s": 0.0, "calls": 0, "errors": 0})
        entry["self_s"] += self_s
        entry["calls"] += 1
        entry["errors"] += not returned
    top = [(start, end) for _, start, end, parent, _ in spans if parent < 0]
    top_s = covered(top, float("-inf"), float("inf"))
    residual = wall_s - top_s
    total = sum(selfs) + residual
    if abs(total - wall_s) > 1e-6 * (1 + len(spans) / 1000):
        raise ValueError(f"self times plus residual {total:.9f} s != wall {wall_s:.9f} s")
    if residual < 0:
        raise ValueError(f"top-level spans ({top_s:.6f} s) outlast the command ({wall_s:.6f} s)")
    return {"spans": per_name, "counts": dict(doc["counts"]), "residual_s": residual, "wall_s": wall_s}


def merge(profiles: list[dict]) -> dict:
    """Sum command profiles into one workload profile."""
    out = {"spans": {}, "counts": defaultdict(int), "residual_s": 0.0, "wall_s": 0.0}
    for prof in profiles:
        for name, entry in prof["spans"].items():
            acc = out["spans"].setdefault(name, {"self_s": 0.0, "calls": 0, "errors": 0})
            for key in acc:
                acc[key] += entry[key]
        for key, value in prof["counts"].items():
            out["counts"][key] += value
        out["residual_s"] += prof["residual_s"]
        out["wall_s"] += prof["wall_s"]
    out["counts"] = dict(out["counts"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(profile: dict, timed: tuple[str, ...], layers: tuple[str, ...]) -> dict[str, float]:
    """The per-layer metrics of one workload profile.

    Each function in `timed` gives `<name>.self_share`, its self time as a
    share of the traced wall time, and `<name>.self_s`; each layer gives
    the same summed over all its functions, and `<layer>.errors`; plus the
    counters and the ratios built on them.
    """
    spans, counts, wall = profile["spans"], profile["counts"], profile["wall_s"]
    out: dict[str, float] = {}
    for name in timed:
        self_s = spans.get(name, {}).get("self_s", 0.0)
        out[f"{name}.self_s"] = self_s
        out[f"{name}.self_share"] = _ratio(self_s, wall)
    calls = {name: entry["calls"] for name, entry in spans.items()}
    out["metrics.level_structure.calls"] = calls.get("metrics.level_structure", 0)
    out["rules.score_from_counts.calls"] = calls.get("rules.score_from_counts", 0)
    out["metrics.level_cache_hit_ratio"] = _ratio(
        counts.get("metrics.level_cache_hits", 0), out["metrics.level_structure.calls"]
    )
    out["rules.distinct_vote_share"] = _ratio(
        counts.get("rules.scored_distinct_votes", 0), counts.get("rules.scored_votes", 0)
    )
    for key in (
        "oracle.pairs",
        "oracle.vote_evals",
        "metrics.levels",
        "noise.votes_sampled",
        "core.votes_parsed",
        "experiments.trials",
        "cli.result_bytes",
    ):
        out[key] = counts.get(key, 0)
    for layer in layers:
        mine = [entry for name, entry in spans.items() if name.split(".")[0] == layer]
        out[f"{layer}.errors"] = sum(entry["errors"] for entry in mine)
        out[f"{layer}.self_s"] = sum(entry["self_s"] for entry in mine)
        out[f"{layer}.self_share"] = _ratio(out[f"{layer}.self_s"], wall)
    out["cli.residual_s"] = profile["residual_s"]
    out["cli.residual_share"] = _ratio(profile["residual_s"], wall)
    return out
