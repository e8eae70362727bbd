"""The traced run's ledger: spans around the calls into each layer.

:func:`install` wraps the public entry points of every measured layer
from here, outside the program, and :func:`uninstall` puts the
originals back, so untraced rounds in the same process run the
unmodified code. A span is ``[name, start_ns, end_ns, parent, region]``
held in memory; :meth:`Ledger.write_chrome_trace` writes them once, at
the end. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable

#: span-name prefix -> the layer it is billed to (longest prefix wins).
LAYERS: tuple[tuple[str, str], ...] = (
    ("core.batch.", "repro.core.batch"),
    ("engine.", "repro.engine"),
    ("core.", "repro.core"),
    ("storage.", "repro.storage"),
    ("shard.", "repro.shard"),
    ("state.", "repro.state"),
    ("control.", "repro.control"),
    ("obs.", "repro.obs"),
    ("bench.", "benchmark client"),
)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


class Ledger:
    """Spans of one process, plus the counts taken at layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: the benchmark phase new spans belong to (setup/ingest/recover/check).
        self.region = ""
        #: start of the most recent ``MonitorSession.flush`` call.
        self.last_flush_start_ns = 0
        self.coalesced_moves = 0
        self.coalesced_raw = 0
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording --------------------------------------------------------

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.region])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own regions."""
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    def _wrap(self, fn: Callable, name: str | Callable, after: Callable | None = None):
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = ledger.enter(name(args[0]) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(index, args, result)
                return result
            finally:
                ledger.exit(index)

        return wrapper

    def _patch(self, owner: object, attr: str, name: str | Callable, after=None) -> None:
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        self._patches.append((owner, attr, original, owned))
        setattr(owner, attr, self._wrap(original, name, after))

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        """Wrap every measured layer's public calls."""
        import repro.core.batch as batch
        import repro.state.recovery as recovery
        from repro.core.batch import BatchProcessor
        from repro.core.events import ChangeTracker
        from repro.core.monitor import CTUPMonitor
        from repro.engine.hooks import HookList
        from repro.engine.session import MonitorSession
        from repro.obs.spec import Observability
        from repro.shard.merge import GlobalTopK
        from repro.shard.monitor import ShardedMonitor
        from repro.state.journal import UpdateJournal
        from repro.state.recovery import CheckpointStore
        from repro.storage.placestore import PlaceStore

        def phase(kind: str) -> Callable:
            def name(monitor) -> str:
                layer = "shard" if isinstance(monitor, ShardedMonitor) else "core"
                return f"{layer}.{kind}"

            return name

        def flush_started(index, args, result):
            self.last_flush_start_ns = self.spans[index][1]
            return result

        def count_moves(index, args, result):
            self.coalesced_raw += len(args[0])
            self.coalesced_moves += len(result)
            return result

        def materialize(index, args, result):
            return iter(list(result))

        # repro.engine
        self._patch(MonitorSession, "start", "engine.start")
        self._patch(MonitorSession, "feed", "engine.feed")
        self._patch(MonitorSession, "apply_control", "engine.apply_control")
        self._patch(ChangeTracker, "observe", "engine.track")
        self._patch(ChangeTracker, "prime", "engine.prime")
        for hook in (
            "on_update_start",
            "on_update_end",
            "on_batch_flush",
            "on_topk_change",
            "on_refresh",
            "on_control",
        ):
            self._patch(HookList, hook, "engine.hooks")
        self._patch(MonitorSession, "flush", "engine.flush", flush_started)
        # repro.core.batch
        self._patch(BatchProcessor, "process_batch", "core.batch.process")
        self._patch(batch, "coalesce_burst", "core.batch.coalesce", count_moves)
        # repro.core (and the sharded wrapper's own phases: repro.shard)
        self._patch(CTUPMonitor, "initialize", phase("init"))
        self._patch(CTUPMonitor, "apply_update", phase("maintain"))
        self._patch(CTUPMonitor, "apply_burst", phase("maintain"))
        self._patch(CTUPMonitor, "refresh", phase("access"))
        # repro.storage
        self._patch(PlaceStore, "__init__", "storage.bulk_load")
        # repro.shard
        self._patch(GlobalTopK, "merge", "shard.merge")
        # repro.state
        self._patch(UpdateJournal, "__init__", "state.journal_open")
        self._patch(UpdateJournal, "records", "state.journal_read", materialize)
        self._patch(UpdateJournal, "tail", "state.journal_read")
        for append in ("append_update", "append_flush", "append_control"):
            self._patch(UpdateJournal, append, "state.journal_append")
        self._patch(os, "fsync", "state.fsync")
        self._patch(MonitorSession, "checkpoint", "state.snapshot")
        self._patch(CheckpointStore, "write_snapshot", "state.snapshot_write")
        self._patch(CheckpointStore, "latest", "state.restore")
        self._patch(recovery, "restore_monitor", "state.restore")
        self._patch(MonitorSession, "replay", "state.replay")
        # repro.control
        self._patch(CTUPMonitor, "apply_control", "control.apply")
        # repro.obs
        self._patch(Observability, "sync", "obs.sync")

    def uninstall(self) -> None:
        """Put every original back (reverse order of patching)."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- reading ----------------------------------------------------------

    def select(self, region: str, first: int = 0) -> list[int]:
        """Indexes of the spans recorded in ``region`` since ``first``."""
        return [i for i in range(first, len(self.spans)) if self.spans[i][4] == region]

    def seconds(self, names: Iterable[str], indexes: Iterable[int]) -> float:
        """Total duration of the spans named ``names``; a span nested
        inside another of the same names is not counted twice."""
        names = set(names)
        total = 0
        for i in indexes:
            span = self.spans[i]
            if span[0] not in names:
                continue
            if self._has_ancestor(i, names):
                continue
            total += span[2] - span[1]
        return total / 1e9

    def count(self, names: Iterable[str], indexes: Iterable[int]) -> int:
        names = set(names)
        return sum(1 for i in indexes if self.spans[i][0] in names)

    def _has_ancestor(self, index: int, names: set[str]) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def self_seconds(self, indexes: Iterable[int]) -> dict[str, float]:
        """Self time per layer over ``indexes`` (duration minus children)."""
        indexes = list(indexes)
        child_ns: dict[int, int] = {}
        for i in indexes:
            span = self.spans[i]
            if span[3] >= 0:
                child_ns[span[3]] = child_ns.get(span[3], 0) + span[2] - span[1]
        out: dict[str, float] = {}
        for i in indexes:
            span = self.spans[i]
            own = span[2] - span[1] - child_ns.get(i, 0)
            layer = layer_of(span[0])
            out[layer] = out.get(layer, 0.0) + own / 1e9
        return out

    def write_chrome_trace(self, path: str | Path) -> None:
        """All spans as one Chrome-trace JSON document."""
        events = [
            {
                "name": name,
                "cat": layer_of(name),
                "ph": "X",
                "ts": start / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent, "region": region},
            }
            for index, (name, start, end, parent, region) in enumerate(self.spans)
        ]
        Path(path).write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
