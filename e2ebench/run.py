"""Deployed-shape MonitorSession benchmark.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload oldtown-s4-control --seed 1 --seconds 55 --trace 0

One client thread drives ``repro.api.open_session`` in a closed loop:
the next update is fed when the previous ``feed`` returns. Sessions run
as deployed: the ``opt`` scheme at ``CTUPConfig`` defaults, change
tracking on, a write-ahead journal with periodic snapshots on disk, and
``ObsSpec(metrics=True)`` with a metrics scrape every ``SCRAPE_EVERY``
updates.

A run repeats identical rounds for ``--seconds`` (whole rounds only;
the first round's lazy imports weigh nothing in medians over the 8-19
rounds of a 55 s run). A round sets up several times on a fresh durability
directory, feeds the whole seeded stream, checks the result against the
benchmark's own brute force, simulates a crash (the journal handle is
closed, ``close()`` is never called), and resumes several times, each
resumed result checked again.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer metrics of the traced
ones, the tracing overhead, and writes a Chrome trace under
``.e2ebench_state/``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# one BLAS/OpenMP thread, set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.stderr.write(f"e2ebench: no program sources under {ROOT / 'src'}\n")
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from ledger import Ledger  # noqa: E402
from oracle import check_result, expected_for, observed  # noqa: E402
from worlds import WORKLOADS, Inputs, build_inputs  # noqa: E402

from repro.api import DurabilitySpec, ObsSpec, ShardedMonitor, ShardSpec, open_session  # noqa: E402
from repro.model import LocationUpdate  # noqa: E402

STATE_DIR = ROOT / ".e2ebench_state"
DURABLE_DIR = STATE_DIR / "durable"
#: set-ups timed per untraced round (the last one is the session fed).
SETUP_SAMPLES = 4
#: resumes timed per untraced round (resuming never writes, so it repeats).
RECOVERIES = 3
#: updates between two reads of the metrics exposition (a scrape).
SCRAPE_EVERY = 1024
KINDS = ("update", "control", "snapshot", "recovery", "check")


class RoundAborted(Exception):
    """An operation raised; the run stops after the current round."""


@dataclass
class Tally:
    """Operations attempted and failed, per kind."""

    attempted: dict = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    failed: dict = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    problems: list = field(default_factory=list)

    def attempt(self, kind: str, fn, *args):
        self.attempted[kind] += 1
        try:
            return fn(*args)
        except Exception:
            self.failed[kind] += 1
            traceback.print_exc(file=sys.stderr)
            raise RoundAborted(kind) from None

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted["check"] += 1
        if problems:
            self.failed["check"] += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


@dataclass
class RoundResult:
    setup_s: list
    fed: int
    ingest_s: float
    visible_s: list
    flushes: int
    batch_wait_s: list
    page_reads: int
    journal_bytes: int
    snapshot_bytes: int
    snapshots: int
    tail_records: int
    recover_s: list
    before: tuple
    after: tuple
    spans_from: int = 0


def _session(inputs: Inputs, resume: bool):
    spec = inputs.spec
    return open_session(
        "opt",
        places=inputs.places,
        units=inputs.units,
        config=inputs.config,
        shard=ShardSpec(shards=spec.shards) if spec.shards else None,
        durability=DurabilitySpec(DURABLE_DIR, every=spec.snapshot_every, resume=resume),
        obs=ObsSpec(metrics=True),
        batch_size=spec.batch_size,
    )


def _fresh_started(inputs: Inputs):
    """Set-up as timed by ``setup_s``: ``open_session`` plus ``start()``."""
    session = _session(inputs, False)
    session.start()
    return session


def _ledgers(monitor) -> tuple:
    """Work counters, page I/O, unit-prefilter stats and shard
    deliveries (merged over the shards of a sharded monitor)."""
    if isinstance(monitor, ShardedMonitor):
        return (
            monitor.merged_counters(),
            monitor.merged_io(),
            monitor.merged_unit_stats(),
            (monitor.full_deliveries, monitor.sync_deliveries),
        )
    return (
        monitor.counters.snapshot(),
        monitor.store.io_stats.snapshot(),
        monitor.units.stats.snapshot(),
        (0, 0),
    )


def _region(ledger: Ledger | None, name: str):
    if ledger is None:
        return nullcontext()
    ledger.region = name
    return ledger.span(f"bench.{name}")


def run_round(inputs: Inputs, items: list, expected, tally: Tally, ledger: Ledger | None) -> RoundResult:
    spec = inputs.spec
    spans_from = len(ledger.spans) if ledger else 0
    setups = 1 if ledger else SETUP_SAMPLES
    setup_s = []
    session = None
    for index in range(setups):
        shutil.rmtree(DURABLE_DIR, ignore_errors=True)
        gc.collect()
        with _region(ledger, "setup"):
            start = time.perf_counter()
            session = _fresh_started(inputs)
            setup_s.append(time.perf_counter() - start)
        if index < setups - 1:
            session.journal.close()
    gc.collect()
    before = _ledgers(session.monitor)
    batched = spec.batch_size > 0
    pending: list[int] = []
    visible: list[float] = []
    waits: list[float] = []
    flushes = 0
    fed = 0

    def drained(end_ns: int) -> None:
        nonlocal flushes
        visible.extend((end_ns - s) / 1e9 for s in pending)
        if ledger is not None and batched:
            waits.extend((ledger.last_flush_start_ns - s) / 1e9 for s in pending)
        pending.clear()
        flushes += 1

    with _region(ledger, "ingest"):
        if ledger is not None:
            ledger.coalesced_moves = ledger.coalesced_raw = 0
        clock = time.perf_counter_ns
        begin = clock()
        for item in items:
            if isinstance(item, LocationUpdate):
                start = clock()
                tally.attempt("update", session.feed, item)
                end = clock()
                pending.append(start)
                if session.pending_updates == 0:
                    drained(end)
                fed += 1
                if fed % SCRAPE_EVERY == 0:
                    session.metrics_text()
            else:
                tally.attempt("control", session.apply_control, item)
                if pending:
                    drained(clock())
        session.flush()
        finish = clock()
        if pending:
            drained(finish)
    after = _ledgers(session.monitor)

    snapshot_files = sorted(DURABLE_DIR.glob("snapshot-*.json"))
    journal_path = DURABLE_DIR / "journal.jsonl"
    expected_snapshots = flushes // spec.snapshot_every
    tally.attempted["snapshot"] += expected_snapshots
    tally.failed["snapshot"] += max(0, expected_snapshots - len(snapshot_files))
    last_snapshot_seq = int(snapshot_files[-1].stem.split("-")[1]) if snapshot_files else 0

    with _region(ledger, "check"):
        pre_records, pre_sk = observed(session.monitor)
        tally.check("after ingest", check_result(expected, pre_records, pre_sk))
    tail_records = session.journal.last_seq - last_snapshot_seq
    # the crash: the journal handle goes away, close() never runs.
    session.journal.close()

    recover_s = []
    for _ in range(1 if ledger else RECOVERIES):
        gc.collect()
        with _region(ledger, "recover"):
            start = time.perf_counter()
            resumed = tally.attempt("recovery", _session, inputs, True)
            recover_s.append(time.perf_counter() - start)
        with _region(ledger, "check"):
            records, sk = observed(resumed.monitor)
            tally.check(
                "after recovery",
                check_result(expected, records, sk, reference=pre_records),
            )
        resumed.journal.close()
    if ledger is not None:
        ledger.region = ""
    return RoundResult(
        setup_s=setup_s,
        fed=fed,
        ingest_s=(finish - begin) / 1e9,
        visible_s=visible,
        flushes=flushes,
        batch_wait_s=waits,
        page_reads=after[1].page_reads - before[1].page_reads,
        journal_bytes=journal_path.stat().st_size,
        snapshot_bytes=sum(p.stat().st_size for p in snapshot_files),
        snapshots=len(snapshot_files),
        tail_records=tail_records,
        recover_s=recover_s,
        before=before,
        after=after,
        spans_from=spans_from,
    )


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(rounds: list[RoundResult]) -> dict[str, tuple[float, str]]:
    visible = [v for r in rounds for v in r.visible_s]
    last = rounds[-1]
    return {
        "setup_s": (statistics.median(s for r in rounds for s in r.setup_s), "s"),
        "throughput_ups": (
            statistics.median(r.fed / r.ingest_s for r in rounds),
            "updates/s",
        ),
        "visible_p50_ms": (_quantile(visible, 0.50) * 1e3, "ms"),
        "visible_p95_ms": (_quantile(visible, 0.95) * 1e3, "ms"),
        "recover_s": (statistics.median(s for r in rounds for s in r.recover_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "page_reads_per_update": (last.page_reads / last.fed, "pages/update"),
        "durable_bytes_per_update": (
            (last.journal_bytes + last.snapshot_bytes) / last.fed,
            "bytes/update",
        ),
    }


def per_layer_round(ledger: Ledger, result: RoundResult) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    setup = ledger.select("setup", result.spans_from)
    ingest = ledger.select("ingest", result.spans_from)
    recover = ledger.select("recover", result.spans_from)
    moves, raw = ledger.coalesced_moves, ledger.coalesced_raw
    (c0, io0, u0, d0), (c1, io1, u1, d1) = result.before, result.after
    sec = ledger.seconds
    return {
        "engine.batch_wait_ms": (
            statistics.median(result.batch_wait_s) * 1e3 if result.batch_wait_s else 0.0
        ),
        "engine.track_s": sec({"engine.track"}, ingest),
        "engine.hooks_s": sec({"engine.hooks"}, ingest),
        "core.batch.coalesce_s": sec({"core.batch.coalesce"}, ingest),
        "core.batch.moves_per_update": moves / raw if raw else 1.0,
        "core.init_s": sec({"core.init"}, setup),
        "core.maintain_s": sec({"core.maintain"}, ingest),
        "core.access_s": sec({"core.access"}, ingest),
        "core.distance_rows": c1.distance_rows - c0.distance_rows,
        "core.cells_accessed": c1.cells_accessed - c0.cells_accessed,
        "core.places_loaded": c1.places_loaded - c0.places_loaded,
        "core.maintained_peak": c1.maintained_peak,
        "core.doo_suppressed": c1.doo_suppressed - c0.doo_suppressed,
        "index.candidate_units": u1.candidate_units - u0.candidate_units,
        "index.reachable_units": u1.reachable_units - u0.reachable_units,
        "storage.bulk_load_s": sec({"storage.bulk_load"}, setup),
        "storage.page_reads": io1.page_reads - io0.page_reads,
        "storage.array_hits": io1.array_hits - io0.array_hits,
        "shard.self_s": sec({"shard.maintain", "shard.access"}, ingest)
        - sec({"core.maintain", "core.access"}, ingest)
        if d1 != (0, 0)
        else 0.0,
        "shard.merge_s": sec({"shard.merge"}, ingest),
        "shard.full_deliveries": d1[0] - d0[0],
        "shard.sync_deliveries": d1[1] - d0[1],
        "state.journal_append_s": sec({"state.journal_append"}, ingest),
        "state.fsyncs": ledger.count({"state.fsync"}, ingest),
        "state.fsync_s": sec({"state.fsync"}, ingest),
        "state.journal_bytes": result.journal_bytes,
        "state.snapshot_s": sec({"state.snapshot"}, ingest),
        "state.snapshot_bytes": result.snapshot_bytes,
        "state.journal_scan_s": sec({"state.journal_open", "state.journal_read"}, recover),
        "state.restore_s": sec({"state.restore"}, recover),
        "state.replay_s": sec({"state.replay"}, recover),
        "control.apply_s": sec({"control.apply"}, ingest),
        "control.events": ledger.count({"control.apply"}, ingest),
        "obs.sync_s": sec({"obs.sync"}, ingest),
    }


def _host_probe() -> tuple[float, float]:
    """The host's speed when it is read, untimed, so host drift can be
    told from a program change: the median time of a fixed pure-Python
    loop and the median ``os.fsync`` latency after a 256-byte append on
    the durability directory's filesystem, both in ms."""
    loops = []
    for _ in range(9):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        loops.append((time.perf_counter() - start) * 1e3)
    probe = STATE_DIR / "fsync-probe"
    fsyncs = []
    with open(probe, "ab") as handle:
        for _ in range(21):
            handle.write(b"x" * 256)
            handle.flush()
            start = time.perf_counter()
            os.fsync(handle.fileno())
            fsyncs.append((time.perf_counter() - start) * 1e3)
    probe.unlink()
    return statistics.median(loops), statistics.median(fsyncs)


def _filesystem(path: Path) -> str:
    """The filesystem type the durability directory lives on."""
    real = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) > 2 and (real + "/").startswith(parts[1].rstrip("/") + "/"):
                    if len(parts[1]) >= len(best):
                        best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rss_imports = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    inputs = build_inputs(args.workload, args.seed)
    items = inputs.items()
    rss_inputs = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    expected = expected_for(inputs)
    rss_oracle = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    STATE_DIR.mkdir(exist_ok=True)
    print(
        f"workload {args.workload} seed {args.seed}: {len(inputs.places)} places, "
        f"{len(inputs.units)} units, {len(inputs.updates)} updates and "
        f"{len(inputs.controls)} control events per round; durability dir on "
        f"{_filesystem(STATE_DIR)}; peak RSS {rss_imports:.1f} MiB after imports, "
        f"{rss_inputs:.1f} MiB after input generation, {rss_oracle:.1f} MiB after the "
        "brute force"
    )

    host_start = _host_probe()
    tally = Tally()
    ledger = Ledger() if args.trace else None
    untraced: list[RoundResult] = []
    traced: list[tuple[RoundResult, dict]] = []
    try:
        # whole rounds only: none starts that would end past the deadline,
        # judged by the previous round's length.
        deadline = time.perf_counter() + args.seconds
        last_round_s = 0.0
        while (
            not untraced
            or (ledger is not None and not traced)
            or time.perf_counter() + last_round_s <= deadline
        ):
            started = time.perf_counter()
            if ledger is not None and len(untraced) > len(traced):
                ledger.install()
                try:
                    result = run_round(inputs, items, expected, tally, ledger)
                finally:
                    ledger.uninstall()
                traced.append((result, per_layer_round(ledger, result)))
            else:
                untraced.append(run_round(inputs, items, expected, tally, None))
            last_round_s = time.perf_counter() - started
    except RoundAborted as error:
        print(f"run stopped: a {error} operation raised", file=sys.stderr)

    host_end = _host_probe()
    print(
        f"host loop {host_start[0]:.2f} ms and fsync {host_start[1]:.3f} ms at the start, "
        f"loop {host_end[0]:.2f} ms and fsync {host_end[1]:.3f} ms at the end"
    )
    for problem in tally.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(
        "operations (attempted/failed): "
        + ", ".join(f"{k} {tally.attempted[k]}/{tally.failed[k]}" for k in KINDS)
    )
    metrics: dict[str, tuple[float, str]] = {}
    if untraced:
        rounds = untraced
        print(
            f"{len(rounds)} untraced rounds: {sum(len(r.visible_s) for r in rounds)} visibility "
            f"samples, {sum(r.flushes for r in rounds)} flushes, {rounds[-1].snapshots} snapshots "
            f"and a {rounds[-1].tail_records}-record recovery tail per round, "
            f"{sum(len(r.setup_s) for r in rounds)} set-ups, "
            f"{sum(len(r.recover_s) for r in rounds)} recoveries"
        )
        if ledger is None:
            metrics = end_to_end(rounds)
        elif traced:
            metrics = _report_trace(args, ledger, untraced, traced)

    # no operation may fail: a failed update, control event, snapshot,
    # recovery or check makes the run incorrect (an operation that raised
    # also stopped the run, so it exits 1).
    correct = not tally.problems and not any(tally.failed.values())
    attempted = sum(tally.attempted.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": sum(tally.failed.values()),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct and metrics else 1


def _unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("per_update"):
        return "moves/update"
    return "count"


def _report_trace(args, ledger: Ledger, untraced, traced) -> dict[str, tuple[float, str]]:
    plain = statistics.median(r.fed / r.ingest_s for r in untraced)
    with_trace = statistics.median(r.fed / r.ingest_s for r, _ in traced)
    print(
        f"tracing overhead: {with_trace:.1f} updates/s traced vs {plain:.1f} untraced "
        f"(tracing costs {(1 - with_trace / plain) * 100:.1f}% of throughput), "
        f"{len(traced)} traced and {len(untraced)} untraced rounds"
    )
    last, _ = traced[-1]
    ingest = ledger.select("ingest", last.spans_from)
    selfs = ledger.self_seconds(ingest)
    wall = ledger.seconds({"bench.ingest"}, ingest)
    print(
        f"ingest self time by layer (last traced round, {wall:.3f} s wall): "
        + ", ".join(f"{k} {v:.3f} s" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]))
    )
    print(
        "part of the ingest wall time no layer self time accounts for: "
        f"{selfs.get('benchmark client', 0.0) / wall * 100:.1f}%"
    )
    fsyncs = ledger.count({"state.fsync"}, ingest)
    if fsyncs:
        print(
            f"fsync latency: {ledger.seconds({'state.fsync'}, ingest) / fsyncs * 1e3:.3f} ms "
            f"mean over {fsyncs} calls"
        )
    trace_path = STATE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    ledger.write_chrome_trace(trace_path)
    print(f"chrome trace: {trace_path.relative_to(ROOT)} ({len(ledger.spans)} spans)")
    names = traced[0][1].keys()
    return {
        name: (statistics.median(layer[name] for _, layer in traced), _unit(name))
        for name in names
    }


if __name__ == "__main__":
    sys.exit(main())
