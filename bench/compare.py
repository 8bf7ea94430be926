"""Compare a parent checkout with a change checkout on the benchmark.

    python3 bench/compare.py --parent ../parent --change . --pairs 10

Runs `bench/run.py` in each checkout, with the same seed and settings, in
pairs: pair i uses seed FIRST_SEED + i, and the side that runs first
alternates from pair to pair. For every workload and every end-to-end
metric of BENCHMARK.json it reports each side's median and quartiles,
the share of pairs the change won (ties count for neither), and one
verdict:

  gain        the change won at least 9 of 10 pairs and the medians differ,
              in its favour, by more than the parent's interquartile range
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread exceeds the bound, so "no worse"
              cannot be shown, unless every change run beat every parent run
  same        none of the above: no worse than the bound allows

It also diffs the result-file hashes of every command, pair by pair, so a
change can show that its outputs are byte-identical to the parent's.
`--write FILE` saves everything as JSON (for example a BENCH_<name>.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Apply the pairwise rule to one metric on one workload.

    `parent[i]` and `change[i]` come from pair i; `better` is "lower" or
    "higher"; `bound` is the share of the parent's median by which the
    change may be worse before it counts as a regression.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs of runs")
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    spread = p3 - p1
    gained = sign * (p_med - c_med)  # positive when the change is better
    share = wins / len(parent)
    if share >= WIN_SHARE and gained > spread:
        verdict = "gain"
    elif -gained > bound * abs(p_med):
        verdict = "regression"
    elif spread > bound * abs(p_med) and not all(
        sign * (p - c) > 0 for p in parent for c in change
    ):
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "parent": {"median": p_med, "q1": p1, "q3": p3},
        "change": {"median": c_med, "q1": c1, "q3": c3},
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "win_share": share,
        "verdict": verdict,
    }


def hash_diff(parent: dict, change: dict) -> list[str]:
    """Ids of commands whose result files differ between two run records."""
    theirs = {c["id"]: c["sha256"] for c in change["commands"]}
    return [c["id"] for c in parent["commands"] if theirs.get(c["id"]) != c["sha256"]]


def run_side(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
    path = checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workloads", help="comma-separated; default: all of BENCHMARK.json")
    parser.add_argument("--write", type=Path, help="save the comparison as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs = {name: {"parent": [], "change": []} for name in names}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for name in names:
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[name][side].append(run_side(checkout, name, seed, spec["run_seconds"]))
            print(f"pair {i + 1}/{args.pairs} {name} done (seed {seed}, {order[0]} first)", flush=True)

    report = {"pairs": args.pairs, "first_seed": args.first_seed, "workloads": {}}
    for name in names:
        parent, change = runs[name]["parent"], runs[name]["change"]
        rows = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            rows[key] = judge(
                [r["end_to_end"][key] for r in parent],
                [r["end_to_end"][key] for r in change],
                metric["better"],
                metric["bound"],
            )
            rows[key]["unit"] = metric["unit"]
        diffs = sorted({cid for p, c in zip(parent, change) for cid in hash_diff(p, c)})
        report["workloads"][name] = {
            "metrics": rows,
            "correct": all(r["correct"] for r in parent + change),
            "changed_outputs": diffs,
        }
        print(f"\n{name}: outputs {'byte-identical' if not diffs else 'differ in ' + ', '.join(diffs)}")
        for key, row in rows.items():
            p, c = row["parent"], row["change"]
            print(
                f"  {key:<14}{row['unit']:<6} parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
                f"  change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]"
                f"  won {row['wins']}/{row['pairs']}  {row['verdict']}"
            )
    if args.write:
        args.write.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    regressions = [
        (name, key)
        for name, wl in report["workloads"].items()
        for key, row in wl["metrics"].items()
        if row["verdict"] == "regression"
    ]
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
