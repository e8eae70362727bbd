"""Steadiness command: do two sets of runs of one commit agree?

Usage (from the repository root)::

    python3 e2ebench/steadiness.py --runs 10 --gap 120

Runs ``e2ebench/run.py`` once per seed (1 to ``--runs``) and workload,
at the run length of ``BENCHMARK.json``, in two sets taken ``--gap``
seconds apart (the machine's speed drifts for minutes at a time, so sets
taken back to back look steadier than they are). For each end-to-end
metric and workload it prints each set's median and quartiles, the
quartile spread as a share of the median, and a verdict against the
metric's bound from ``BENCHMARK.json``: ``UNRESOLVED`` when either set's
spread is wider than the bound (the runs cannot resolve a change of that
size), else ``DISAGREE`` when the second median is worse than the first
by more than the bound, else ``agree``. Every metric, ``setup_s`` too,
gets the same check. It also prints each set's median host probes (see
``run.py``), which show when the sets ran on a host in another state.
A run exits non-zero when a check or any other operation fails, and that
ends the command with a non-zero exit. The raw results go to
``.e2ebench_state/steadiness.json``. Exit code 0 means every pairing
agrees.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run: its final JSON line, plus ``host``, the run's
    mean readings of the host-speed loop and fsync probes in ms."""
    done = subprocess.run(
        [
            sys.executable,
            "e2ebench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    probe = re.search(
        r"host loop ([\d.]+) ms and fsync ([\d.]+) ms at the start, "
        r"loop ([\d.]+) ms and fsync ([\d.]+) ms",
        done.stdout,
    )
    read = [float(x) for x in probe.groups()]
    result["host"] = {"loop_ms": (read[0] + read[2]) / 2, "fsync_ms": (read[1] + read[3]) / 2}
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and the quartile spread as a
    share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload and set (>= 2)")
    parser.add_argument("--gap", type=float, default=120.0, help="seconds between the sets")
    parser.add_argument("--workload", action="append", choices=workloads)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    chosen = args.workload or workloads
    seeds = range(1, args.runs + 1)

    sets: list[dict[str, list[dict]]] = []
    for index in range(2):
        if index:
            time.sleep(args.gap)
        results: dict[str, list[dict]] = {w: [] for w in chosen}
        for seed in seeds:
            for workload in chosen:
                results[workload].append(run_once(workload, seed, bench["run_seconds"]))
                print(f"set {index + 1} {workload} seed {seed} done", flush=True)
        sets.append(results)
    out = ROOT / ".e2ebench_state" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(sets), encoding="utf-8")
    return 0 if report(bench, sets) else 1


def report(bench: dict, sets: list[dict[str, list[dict]]]) -> bool:
    """Print the comparison of the two sets; whether every pairing agrees."""
    agree = True
    for workload in sets[0]:
        print(f"\n{workload}")
        for probe in ("loop_ms", "fsync_ms"):
            medians = [statistics.median(r["host"][probe] for r in s[workload]) for s in sets]
            print(f"  host {probe:21s} set1 {medians[0]:.4g}  set2 {medians[1]:.4g}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = [
                summarize([r["metrics"][name]["value"] for r in s[workload]]) for s in sets
            ]
            worse = (rows[1][0] - rows[0][0]) / rows[0][0]
            if metric["better"] == "higher":
                worse = -worse
            if any(spread > bound for *_, spread in rows):
                verdict = "UNRESOLVED"
            elif worse > bound:
                verdict = "DISAGREE"
            else:
                verdict = "agree"
            agree = agree and verdict == "agree"
            cells = "  ".join(
                f"set{i + 1} {m:.5g} [{a:.5g}, {b:.5g}] spread {sp:.3f}"
                for i, (m, a, b, sp) in enumerate(rows)
            )
            print(f"  {name:26s} bound {bound:.2f}  {cells}  {verdict}")
    return agree


if __name__ == "__main__":
    sys.exit(main())
