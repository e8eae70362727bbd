"""The benchmark's own correctness check: a numpy brute force.

Built from the paper's definitions alone. A unit protects a place when
the place lies in the unit's closed protection disk (squared distance
at most R²); ``safety = AP - RP``; the top-k result is the k smallest
``(safety, place_id)`` pairs and SK is the k-th safety. The final unit
positions are folded from the update stream and the final catalog and
``k`` from the control plan, here and not by the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.control.events import KChanged, PlaceAdded, PlaceRemoved, PlaceReweighted

#: places per block of the brute force (a 128 x 400 block is 400 KiB).
ROWS = 128

#: one result record as compared: ``(place_id, safety)``.
Record = tuple[int, float]


@dataclass(frozen=True)
class Expected:
    """The brute-force answer for the world at the end of a stream."""

    k: int
    place_count: int
    records: tuple[Record, ...]
    sk: float


def fold_world(places, units, updates, controls, k: int):
    """Final unit positions, catalog ``{id: (x, y, rp)}`` and ``k``."""
    positions = {u.unit_id: (u.location.x, u.location.y) for u in units}
    for update in updates:
        positions[update.unit_id] = (update.new_location.x, update.new_location.y)
    catalog = {
        p.place_id: (p.location.x, p.location.y, p.required_protection)
        for p in places
    }
    for _, event in controls:
        if isinstance(event, PlaceAdded):
            place = event.place
            catalog[place.place_id] = (
                place.location.x,
                place.location.y,
                place.required_protection,
            )
        elif isinstance(event, PlaceRemoved):
            del catalog[event.place_id]
        elif isinstance(event, PlaceReweighted):
            x, y, _ = catalog[event.place_id]
            catalog[event.place_id] = (x, y, event.required_protection)
        elif isinstance(event, KChanged):
            k = event.k
        else:
            raise TypeError(f"the oracle cannot fold {type(event).__name__}")
    return positions, catalog, k


def brute_force(positions, catalog, k: int, radius: float) -> Expected:
    """Every place against every unit; the k smallest (safety, id)."""
    ids = np.array(sorted(catalog), dtype=np.int64)
    xs = np.array([catalog[i][0] for i in ids], dtype=np.float64)
    ys = np.array([catalog[i][1] for i in ids], dtype=np.float64)
    rp = np.array([catalog[i][2] for i in ids], dtype=np.float64)
    ux = np.array([p[0] for p in positions.values()], dtype=np.float64)
    uy = np.array([p[1] for p in positions.values()], dtype=np.float64)
    r2 = radius * radius
    ap = np.zeros(len(ids), dtype=np.int64)
    # small row blocks keep the temporaries far below the sessions'
    # footprint, so the check does not set the run's peak RSS.
    for lo in range(0, len(ids), ROWS):
        dx = xs[lo : lo + ROWS, None] - ux[None, :]
        dy = ys[lo : lo + ROWS, None] - uy[None, :]
        ap[lo : lo + ROWS] = np.count_nonzero(dx * dx + dy * dy <= r2, axis=1)
    safety = ap.astype(np.float64) - rp
    order = np.lexsort((ids, safety))
    size = min(k, len(ids))
    records = tuple((int(ids[i]), float(safety[i])) for i in order[:size])
    if k <= 0:
        sk = -math.inf
    elif k > len(ids):
        sk = math.inf
    else:
        sk = float(safety[order[k - 1]])
    return Expected(k=k, place_count=len(ids), records=records, sk=sk)


def expected_for(inputs) -> Expected:
    """The brute-force answer after a workload's whole stream."""
    positions, catalog, k = fold_world(
        inputs.places,
        inputs.units,
        inputs.updates,
        inputs.controls,
        inputs.config.k,
    )
    return brute_force(positions, catalog, k, inputs.config.protection_range)


def observed(monitor) -> tuple[list[Record], float]:
    """A monitor's current result as plain ``(place_id, safety)`` data."""
    return [(int(r.place_id), float(r.safety)) for r in monitor.top_k()], float(
        monitor.sk()
    )


def check_result(
    expected: Expected,
    records: Sequence[Record],
    sk: float,
    reference: Iterable[Record] | None = None,
) -> list[str]:
    """Every way ``records``/``sk`` disagree with the brute force.

    ``reference`` is an earlier result the records must equal exactly
    (the pre-crash result, when checking a recovered session). An empty
    list means the result is correct.
    """
    problems: list[str] = []
    records = list(records)
    want_size = min(expected.k, expected.place_count)
    if len(records) != want_size:
        problems.append(f"result has {len(records)} records, expected {want_size}")
    keys = [(safety, place_id) for place_id, safety in records]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        problems.append("records are not in ascending (safety, place_id) order")
    if [r[0] for r in records] != [r[0] for r in expected.records]:
        problems.append("top-k place ids differ from the brute force")
    if [r[1] for r in records] != [r[1] for r in expected.records]:
        problems.append("top-k safeties differ from the brute force")
    if sk != expected.sk:
        problems.append(f"SK is {sk}, brute force says {expected.sk}")
    if reference is not None and records != list(reference):
        problems.append("recovered result differs from the pre-crash result")
    return problems
