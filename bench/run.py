"""Benchmark of the abcc command line, end to end and layer by layer.

    python3 bench/run.py --workload verdict --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout. One client runs a workload's fixed
list of abcc commands one at a time (a closed loop), each as a fresh
`python -m abcc` child with PYTHONPATH pointing at the checkout's `src/`,
which is how a user runs it. The list repeats while another repetition
still fits in --seconds (at least once). Every command gets a fresh --out
directory; its exit code and output are checked (bench/workloads.py) and
its result files hashed.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
repetitions with repetitions run through bench/shim.py, which records a
span per call into each layer, and reports the per-layer metrics. The
last line of standard output is one JSON object; the lines before it are
a table for people. Each run also writes its full record, including
per-command result-file hashes, to .bench_out/ for bench/compare.py.
`--workload all` runs every workload in turn and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

# Half of the set-up runs happen before the measured repetitions and half
# after, so their median spans the run's changes in machine speed.
SETUP_SPAWNS = 8
# A child still running this long after the run began is killed (and its
# command counted as failed), so that every run ends within three minutes.
RUN_LIMIT_S = 165
MANIFEST = "manifest.jsonl"

# The machine this benchmark was defined on (a 2-vCPU Intel Xeon VM at
# 2.1 GHz, shared with other tenants) changes speed by 20-35% over tens of
# seconds. Every time in the end-to-end metrics is therefore scaled to a
# reference speed: the launcher times a fixed probe process (launch.py)
# on the same CPU right before and after each child, and a child's
# seconds are multiplied by PROBE_REFERENCE_S over the mean of its two
# probes. PROBE_REFERENCE_S is the probe's typical duration on that
# machine, so the scaled values read as seconds there. Raw seconds stay
# in the record.
PROBE_REFERENCE_S = 0.12

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "peak_rss_mib": "MiB",
}

# Functions whose self time the traced run reports, as `<name>.self_share`.
TIMED = (
    "oracle.robustness_verdict",
    "oracle.verdict_to_json",
    "metrics.level_structure",
    "metrics.check_metric_axioms",
    "metrics.is_majority_concentric",
    "metrics.is_natural",
    "metrics.is_similarity",
    "metrics.is_alternative_independent",
    "metrics.load_metric_file",
    "metrics.metric_to_json",
    "noise.sample_vote_masks",
    "noise.make_level_model",
    "noise.model_to_json",
    "noise.jump_counterexample",
    "rules.score_from_counts",
    "rules.winners",
    "rules.is_nontrivial",
    "core.parse_profile",
    "core.format_profile",
    "experiments.accuracy_trial",
    "experiments.mle_committees",
    "experiments.hierarchy_report",
    "cli.write_json",
    "cli.write",
)
LAYERS = ("core", "rules", "metrics", "noise", "oracle", "experiments", "cli")

PER_LAYER = {
    **{f"{name}.self_share": "ratio" for name in TIMED},
    "cli.residual_s": "s",
    "cli.residual_share": "ratio",
    "oracle.pairs": "count",
    "oracle.vote_evals": "count",
    "metrics.level_structure.calls": "count",
    "metrics.level_cache_hit_ratio": "ratio",
    "metrics.levels": "count",
    "noise.votes_sampled": "count",
    "rules.score_from_counts.calls": "count",
    "rules.distinct_vote_share": "ratio",
    "core.votes_parsed": "count",
    "experiments.trials": "count",
    "cli.result_bytes": "bytes",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace_overhead_ratio": "ratio",
}


def scaled(walls: list[float], probes: list[float]) -> list[float]:
    """Scale each child's wall time to the reference speed; probes[i] and
    probes[i + 1] bracket child i."""
    return [w * 2 * PROBE_REFERENCE_S / (a + b) for w, a, b in zip(walls, probes, probes[1:])]


def pin_to_one_cpu() -> None:
    """Run this process and, by inheritance, every child on one CPU, so the
    probe measures the CPU the commands run on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not pinnable here: the probe still tracks machine-wide speed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The small interpreter (launch.py) that starts, times and reaps every
    child of one run, and times the speed probe between them."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), text=True,
        )

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        return json.loads(line)

    def probe(self) -> float:
        return self._ask({"probe": True})["probe_s"]

    def spawn(self, argv: list[str], cwd: Path, tag: str) -> tuple[dict, str]:
        """Run one child to completion; returns its timing and usage, and its stdout."""
        out = cwd / f"{tag}.stdout"
        reply = self._ask({
            "argv": argv,
            "cwd": str(cwd),
            "stdout": str(out),
            "stderr": str(cwd / f"{tag}.stderr"),
            "timeout": max(self.deadline - time.perf_counter(), 0.0),
        })
        return reply, out.read_text(encoding="utf-8", errors="replace")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def result_files(out: Path) -> dict[str, bytes]:
    if not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file() and p.name != MANIFEST}


def run_list(
    wl: workloads.Workload, rep_dir: Path, seed: int, traced: bool, pins: dict, launcher: Launcher
) -> dict:
    """One repetition of the workload's command list."""
    rep_dir.mkdir(parents=True)
    rows, probes = [], [launcher.probe()]
    for i, cmd in enumerate(wl.commands):
        tag = f"{i:02d}"
        out = rep_dir / tag
        args = [*cmd.argv, "--out", str(out)]
        if traced:
            argv = [sys.executable, str(HERE / "shim.py"), str(rep_dir / f"{tag}.spans.json"), "--", *args]
        else:
            argv = [sys.executable, "-m", "abcc", *args]
        child, stdout = launcher.spawn(argv, rep_dir, tag)
        probes.append(launcher.probe())
        files = result_files(out)
        problems, answer = cmd.check(workloads.Result(child["rc"], stdout, files))
        problems += workloads.pin_problems(wl.name, cmd, seed, answer, pins)
        row = {
            "id": cmd.id,
            "raw_s": child["wall_s"],
            "cpu_s": child["cpu_s"],
            "rss_kib": child["rss_kib"],
            "rc": child["rc"],
            "problems": problems,
            "answer": answer,
            "sha256": {name: hashlib.sha256(data).hexdigest() for name, data in files.items()},
        }
        if traced:
            try:
                doc = json.loads((rep_dir / f"{tag}.spans.json").read_text(encoding="utf-8"))
                row["profile"] = spans.command_profile(doc, child["wall_s"])
            except (OSError, ValueError, KeyError) as exc:
                row["problems"].append(f"trace: {exc}")
        rows.append(row)
    shutil.rmtree(rep_dir)
    for row, wall in zip(rows, scaled([r["raw_s"] for r in rows], probes)):
        row["wall_s"] = wall
    return {
        "traced": traced,
        "wall_s": sum(r["wall_s"] for r in rows),
        "raw_s": sum(r["raw_s"] for r in rows),
        "probes_s": probes,
        "commands": rows,
    }


def version_runs(work: Path, first: int, count: int, launcher: Launcher) -> list[dict]:
    """Fresh `python -m abcc --version` processes: interpreter start plus
    importing abcc and numpy, which every command pays."""
    runs, probes = [], [launcher.probe()]
    for i in range(first, first + count):
        child, stdout = launcher.spawn([sys.executable, "-m", "abcc", "--version"], work, f"version{i}")
        probes.append(launcher.probe())
        ok = child["rc"] == 0 and stdout.strip()
        problems = [] if ok else [f"--version run {i}: exit {child['rc']}, output {stdout.strip()!r}"]
        runs.append({"raw_s": child["wall_s"], "rss_kib": child["rss_kib"], "problems": problems})
    for run, wall in zip(runs, scaled([r["raw_s"] for r in runs], probes)):
        run["wall_s"] = wall
    return runs


def median(values):
    return statistics.median(values) if values else 0.0


def consistency_problems(reps: list[dict]) -> list[str]:
    """The same command must write byte-identical result files in every
    repetition, traced or not."""
    problems = []
    for i, row in enumerate(reps[0]["commands"]):
        hashes = {json.dumps(rep["commands"][i]["sha256"], sort_keys=True) for rep in reps}
        if len(hashes) > 1:
            problems.append(f"{row['id']}: result files differ between repetitions")
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[name](seed, work / "inputs")
        pins = workloads.load_pins()
        half = SETUP_SPAWNS // 2
        with Launcher(time.perf_counter() + RUN_LIMIT_S) as launcher:
            setup = version_runs(work, 0, half, launcher)
            reps, start = [], time.perf_counter()
            while True:
                begun = time.perf_counter()
                reps.append(run_list(wl, work / f"rep{len(reps)}", seed, False, pins, launcher))
                if trace:
                    reps.append(run_list(wl, work / f"rep{len(reps)}", seed, True, pins, launcher))
                last = time.perf_counter() - begun
                if time.perf_counter() - start + last > seconds:
                    break
            setup += version_runs(work, half, SETUP_SPAWNS - half, launcher)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rows = [row for rep in reps for row in rep["commands"]]
    problems = [p for run in setup for p in run["problems"]] + consistency_problems(reps)
    failed = sum(1 for row in rows if row["problems"]) + len(problems)
    attempted = len(rows) + SETUP_SPAWNS
    plain = [rep for rep in reps if not rep["traced"]]
    plain_rows = [row for rep in plain for row in rep["commands"]]
    # Each command's median over the repetitions, which a slow spell in one
    # repetition moves less than it moves a single run. wall_s sums them;
    # cmd_p50_s is the middle one (every list has an odd number of commands).
    per_command = list(zip(*(rep["commands"] for rep in plain)))
    medians = {key: [median([row[key] for row in runs]) for runs in per_command] for key in ("wall_s", "raw_s")}
    wall_s = sum(medians["wall_s"])
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": wl.inputs,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems + [f"{row['id']}: {p}" for row in rows for p in row["problems"]],
        "end_to_end": {
            "setup_s": median([run["wall_s"] for run in setup]),
            "wall_s": wall_s,
            "cmd_p50_s": median(medians["wall_s"]),
            "peak_rss_mib": max(row["rss_kib"] for row in plain_rows + setup) / 1024,
        },
        "raw": {
            "setup_s": median([run["raw_s"] for run in setup]),
            "wall_s": sum(medians["raw_s"]),
            "cmd_p50_s": median(medians["raw_s"]),
            "probe_s": median([p for rep in reps for p in rep["probes_s"]]),
        },
        "samples": {"setup": len(setup), "reps": len(plain), "commands": len(per_command)},
        "rep_walls_s": [rep["wall_s"] for rep in plain],
        "rep_raw_s": [rep["raw_s"] for rep in plain],
        "setup_runs_s": [run["wall_s"] for run in setup],
        "work": {
            "pairs": sum(c.pairs for c in wl.commands),
            "votes": sum(c.votes for c in wl.commands),
        },
        "commands": [
            {
                "id": runs[0]["id"],
                "wall_s": [row["wall_s"] for row in runs],
                "raw_s": [row["raw_s"] for row in runs],
                "cpu_s": [row["cpu_s"] for row in runs],
                "answer": runs[0]["answer"],
                "sha256": runs[0]["sha256"],
            }
            for runs in per_command
        ],
    }
    work_done = record["work"]
    record["derived"] = {
        "fail_ratio": failed / attempted,
        "pairs_per_s": work_done["pairs"] / wall_s if work_done["pairs"] else None,
        "votes_per_s": work_done["votes"] / wall_s if work_done["votes"] else None,
    }
    if trace:
        traced = [rep for rep in reps if rep["traced"]]
        layer_runs = []
        for rep in traced:
            profiles = [row["profile"] for row in rep["commands"] if "profile" in row]
            if len(profiles) == len(rep["commands"]):
                layer_runs.append(spans.layer_metrics(spans.merge(profiles), TIMED, LAYERS))
        if layer_runs:
            layer = {key: median([run[key] for run in layer_runs]) for key in layer_runs[0]}
            untraced = median([rep["wall_s"] for rep in plain])
            layer["trace_overhead_ratio"] = median([rep["wall_s"] for rep in traced]) / untraced - 1
            record["per_layer"] = layer
        else:
            record["correct"] = False
            record["problems"].append("no traced repetition produced a complete profile")
    return record


def result_line(record: dict) -> dict:
    if record["trace"]:
        source, units = record.get("per_layer", {}), PER_LAYER
    else:
        source, units = record["end_to_end"], END_TO_END
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": source.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }


def table(record: dict) -> list[str]:
    e2e, raw, d, n = record["end_to_end"], record["raw"], record["derived"], record["samples"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"correct {record['correct']}",
        f"  times scaled to the reference speed; probe median {raw['probe_s']:.4f} s "
        f"(reference {PROBE_REFERENCE_S} s); raw seconds in brackets",
        f"  {'setup_s':<14}{e2e['setup_s']:>14.4f} s        [{raw['setup_s']:.4f}] "
        f"median of {n['setup']} `abcc --version` runs",
        f"  {'wall_s':<14}{e2e['wall_s']:>14.4f} s        [{raw['wall_s']:.4f}] "
        f"sum of per-command medians over {n['reps']} untraced repetitions",
        f"  {'cmd_p50_s':<14}{e2e['cmd_p50_s']:>14.4f} s        [{raw['cmd_p50_s']:.4f}] "
        f"median over the list's {n['commands']} commands of those medians",
        f"  {'peak_rss_mib':<14}{e2e['peak_rss_mib']:>14.2f} MiB      largest child max-RSS",
        f"  {'fail_ratio':<14}{d['fail_ratio']:>14.4f} ratio    {record['failed']} of {record['attempted']} attempted",
    ]
    for key, unit, base in (("pairs_per_s", "pairs/s", "pairs"), ("votes_per_s", "votes/s", "votes")):
        value = d[key]
        shown = f"{value:>14.1f}" if value is not None else f"{'n/a':>14}"
        lines.append(f"  {key:<14}{shown} {unit:<8} {record['work'][base]} {base} per list / wall_s")
    lines.append(f"  inputs {json.dumps(record['inputs'], sort_keys=True)}")
    for problem in record["problems"][:20]:
        lines.append(f"  PROBLEM {problem}")
    layer = record.get("per_layer")
    if layer:
        lines.append("  per layer (median of traced repetitions): self time, share of traced wall")
        for name in LAYERS:
            lines.append(f"    {name + ' layer':<38}{layer[f'{name}.self_s']:>10.4f} s {layer[f'{name}.self_share']:>8.3f}")
        for name in TIMED:
            if layer[f"{name}.self_s"]:
                lines.append(
                    f"    {name:<38}{layer[f'{name}.self_s']:>10.4f} s {layer[f'{name}.self_share']:>8.3f}"
                )
        for key in PER_LAYER:
            if not key.endswith(".self_share"):
                lines.append(f"    {key:<38}{layer[key]:>14.6g} {PER_LAYER[key]}")
    return lines


def save(record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "abcc" / "__main__.py").is_file():
        print(f"error: no abcc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace))
        save(record)
        print("\n".join(table(record)), flush=True)
        results[name] = result_line(record)
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
