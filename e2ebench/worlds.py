"""The three benchmark workloads and their seeded inputs.

Every input is built from the workload's spec and ``--seed`` alone, so
the same seed gives the same places, fleet, update stream and control
plan. Generation is untimed: it runs before the first measured round.

Each round feeds ``stream_length`` updates. The length is chosen so the
run ends with a full periodic snapshot cycle minus one flush boundary
after the last snapshot: the crash then leaves a recovery tail of
``snapshot_every - 1`` flush boundaries for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.control.events import ControlEvent
from repro.core.config import CTUPConfig
from repro.model import LocationUpdate, Place, Unit
from repro.roadnet import NetworkMobility, grid_network
from repro.workloads import build_scenario, generate_control_plan, generate_places, record_stream

#: control-event kinds of the ``oldtown-s4-control`` plan (no grid
#: retuning: it always rebuilds, which would swamp the incremental path).
CONTROL_KINDS = ("place_added", "place_removed", "place_reweighted", "k_changed")


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: its session shape and its round size (the world is
    built in :func:`build_inputs`; why each workload exists is in
    ``BENCHMARK.json`` and the README)."""

    name: str
    #: 0 is single-update mode; otherwise updates are flushed in bursts.
    batch_size: int
    #: flush boundaries between periodic snapshots (``DurabilitySpec.every``).
    snapshot_every: int
    #: full snapshot cycles fed before the recovery tail.
    snapshot_cycles: int
    shards: int = 0
    control_events: int = 0

    @property
    def stream_length(self) -> int:
        """Updates per round: ``snapshot_cycles`` full snapshot cycles,
        then ``snapshot_every - 1`` more flush boundaries (the tail)."""
        per_boundary = self.batch_size or 1
        boundaries = (self.snapshot_cycles + 1) * self.snapshot_every - 1
        return boundaries * per_boundary


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "table3-b32",
            batch_size=32,
            snapshot_every=16,
            snapshot_cycles=3,
        ),
        WorkloadSpec(
            "downtown-single",
            batch_size=0,
            snapshot_every=256,
            snapshot_cycles=7,
        ),
        WorkloadSpec(
            "oldtown-s4-control",
            batch_size=32,
            snapshot_every=16,
            snapshot_cycles=3,
            shards=4,
            control_events=12,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything one workload run feeds the program."""

    spec: WorkloadSpec
    seed: int
    config: CTUPConfig
    places: Sequence[Place]
    units: Sequence[Unit]
    updates: Sequence[LocationUpdate]
    #: ``(position, event)``: the event is applied after ``position`` updates.
    controls: Sequence[tuple[int, ControlEvent]]

    def items(self) -> list[LocationUpdate | ControlEvent]:
        """Updates and control events merged in feed order."""
        out: list[LocationUpdate | ControlEvent] = []
        pending = list(self.controls)
        for fed, update in enumerate(self.updates):
            while pending and pending[0][0] <= fed:
                out.append(pending.pop(0)[1])
            out.append(update)
        out.extend(event for _, event in pending)
        return out


#: seed of every workload's map: the road network and the place set.
#: ``--seed`` drives the fleet (start nodes, routes, reports) and the
#: control plan, so runs with different seeds watch the same city.
MAP_SEED = 0


def _fleet(network, count: int, seed: int, length: int, **speeds):
    """A seeded fleet on ``network`` and its first ``length`` reports."""
    mobility = NetworkMobility(network, count=count, seed=seed * 31 + 2, **speeds)
    units = mobility.initial_units(0.1)
    return units, list(record_stream(mobility, length))


def build_inputs(name: str, seed: int) -> Inputs:
    """The seeded inputs of workload ``name``."""
    spec = WORKLOADS[name]
    length = spec.stream_length
    controls: list[tuple[int, ControlEvent]] = []
    if name == "table3-b32":
        # the paper's Table III world: |U| = 150 on grid roads, |P| = 15K
        # uniform (the recipe of the repo's figure benchmarks).
        places = generate_places(15_000, seed=MAP_SEED * 31 + 3)
        units, updates = _fleet(
            grid_network(seed=MAP_SEED * 31 + 1),
            150,
            seed,
            length,
            speed=0.004,
            report_distance=0.004,
        )
    elif name == "downtown-single":
        world = build_scenario("downtown", seed=MAP_SEED, n_places=8_000, stream_length=0)
        places = world.places
        units, updates = _fleet(world.mobility.network, 400, seed, length)
    elif name == "oldtown-s4-control":
        world = build_scenario("old-town", seed=MAP_SEED, stream_length=0)
        places = world.places
        units, updates = _fleet(world.mobility.network, 60, seed, length)
        plan = generate_control_plan(
            places,
            stream_length=length - 1,
            n_events=spec.control_events,
            seed=seed * 7 + 5,
            kinds=CONTROL_KINDS,
        )
        # events land on batch boundaries, so the snapshot cadence (and
        # with it the recovery tail) is the same for every seed.
        controls = [
            (position // spec.batch_size * spec.batch_size, event)
            for position, event in plan
        ]
    else:  # pragma: no cover - WORKLOADS lookup above already failed
        raise KeyError(name)
    return Inputs(
        spec=spec,
        seed=seed,
        config=CTUPConfig(),
        places=list(places),
        units=list(units),
        updates=updates,
        controls=controls,
    )
