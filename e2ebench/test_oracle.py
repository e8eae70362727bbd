"""The benchmark's brute-force check accepts the program's correct
results and catches corrupted ones.

Run from the repository root::

    python3 -m pytest e2ebench/test_oracle.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402
from oracle import Expected, brute_force, check_result, expected_for, fold_world, observed  # noqa: E402
from worlds import Inputs, WorkloadSpec  # noqa: E402

from repro.api import ShardSpec, open_session  # noqa: E402
from repro.control.events import KChanged, PlaceAdded, PlaceRemoved, PlaceReweighted  # noqa: E402
from repro.core.config import CTUPConfig  # noqa: E402
from repro.geometry import Point  # noqa: E402
from repro.model import Place  # noqa: E402
from repro.workloads import build_scenario  # noqa: E402

SPEC = WorkloadSpec("tiny", batch_size=8, snapshot_every=4, snapshot_cycles=1)


def _inputs(controls=()) -> Inputs:
    world = build_scenario("downtown", seed=3, n_places=500, n_units=25, stream_length=240)
    return Inputs(
        spec=SPEC,
        seed=3,
        config=CTUPConfig(),
        places=list(world.places),
        units=list(world.units),
        updates=list(world.stream),
        controls=list(controls),
    )


def _run(inputs: Inputs, shards: int = 0):
    """Drive a real session over the inputs; its final result."""
    session = open_session(
        "opt",
        places=inputs.places,
        units=inputs.units,
        config=inputs.config,
        shard=ShardSpec(shards=shards) if shards else None,
        batch_size=inputs.spec.batch_size,
    )
    session.start()
    for item in inputs.items():
        if hasattr(item, "new_location"):
            session.feed(item)
        else:
            session.apply_control(item)
    session.flush()
    return observed(session.monitor)


def _controls(inputs: Inputs):
    top = [pid for pid, _ in expected_for(inputs).records]
    return [
        (40, PlaceRemoved(top[0])),
        (80, PlaceReweighted(top[1], 9)),
        (120, PlaceAdded(Place(10_000, Point(0.5, 0.5), 60, "pop-up"))),
        (160, KChanged(6)),
    ]


@pytest.mark.parametrize("shards", [0, 4])
def test_program_result_passes(shards):
    inputs = _inputs()
    records, sk = _run(inputs, shards)
    assert check_result(expected_for(inputs), records, sk) == []


@pytest.mark.parametrize("shards", [0, 4])
def test_control_plan_is_folded_independently(shards):
    base = _inputs()
    inputs = _inputs(_controls(base))
    expected = expected_for(inputs)
    assert expected.k == 6
    assert 10_000 in {pid for pid, _ in expected.records}
    records, sk = _run(inputs, shards)
    assert check_result(expected, records, sk) == []


def _corruptions(expected: Expected):
    records = list(expected.records)
    outsider = max(pid for pid, _ in records) + 1
    yield "safety", [(records[0][0], records[0][1] + 1)] + records[1:], expected.sk
    yield "id", records[:-1] + [(outsider, records[-1][1])], expected.sk
    yield "dropped", records[:-1], expected.sk
    yield "order", [records[1], records[0]] + records[2:], expected.sk
    yield "sk", records, expected.sk - 1


@pytest.mark.parametrize("kind", ["safety", "id", "dropped", "order", "sk"])
def test_corrupted_result_is_caught(kind):
    inputs = _inputs()
    expected = expected_for(inputs)
    corrupt = {name: (r, sk) for name, r, sk in _corruptions(expected)}
    records, sk = corrupt[kind]
    assert check_result(expected, records, sk) != []


def test_recovered_result_must_match_pre_crash():
    inputs = _inputs()
    expected = expected_for(inputs)
    records = list(expected.records)
    shifted = records[:-1] + [(records[-1][0], records[-1][1] - 1)]
    problems = check_result(expected, records, expected.sk, reference=shifted)
    assert problems == ["recovered result differs from the pre-crash result"]


def test_closed_disk_and_tie_order():
    # a place exactly R away is protected (closed disk); equal safeties
    # order by ascending place id.
    positions = {0: (0.25, 0.5)}
    catalog = {7: (0.25, 0.75, 0), 3: (0.9, 0.9, 0), 5: (0.9, 0.1, 0)}
    expected = brute_force(positions, catalog, k=2, radius=0.25)
    assert expected.records == ((3, 0.0), (5, 0.0))
    assert expected.sk == 0.0
    assert brute_force(positions, catalog, k=5, radius=0.25).records[-1] == (7, 1.0)


def test_fold_world_applies_every_event():
    place = Place(1, Point(0.1, 0.1), 2)
    positions, catalog, k = fold_world(
        [place],
        [],
        [],
        [(0, PlaceReweighted(1, 5)), (0, PlaceAdded(Place(2, Point(0.2, 0.2), 1))), (0, KChanged(3))],
        15,
    )
    assert catalog == {1: (0.1, 0.1, 5), 2: (0.2, 0.2, 1)} and k == 3 and positions == {}


def test_diverged_program_state_is_caught():
    # the program's own result, after it silently saw one more catalog
    # change than the inputs carry, must fail the check.
    inputs = _inputs()
    expected = expected_for(inputs)
    session = open_session(
        "opt", places=inputs.places, units=inputs.units, config=inputs.config, batch_size=8
    )
    session.start()
    for update in inputs.updates:
        session.feed(update)
    session.flush()
    assert check_result(expected, *observed(session.monitor)) == []
    top_id, _ = expected.records[0]
    session.apply_control(PlaceReweighted(top_id, 40))
    problems = check_result(expected, *observed(session.monitor))
    assert "top-k safeties differ from the brute force" in problems
