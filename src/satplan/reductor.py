"""Synthetic instance generation by shrinking a source instance.

The reduction walks the source's constraints in a seeded random order,
keeping every request a picked constraint touches, until the requested
request count is reached.  Constraints of the source survive exactly when
all of their variables survive.  Capacity variants set the disk budget to
half (rounded up) of the load the reduced instance would incur if every
request were taken with its cheapest allowed camera; non-capacity variants
drop all capacity data instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .instance import Instance, VarRef


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class ReductionSpec:
    target_requests: int
    with_capacity: bool
    seed: int

    def __post_init__(self) -> None:
        for name, least in (("target_requests", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ReductionError(f"{name} must be an integer >= {least}, got {value!r}")
        if not isinstance(self.with_capacity, bool):
            raise ReductionError(f"with_capacity must be a bool, got {self.with_capacity!r}")


def _retained_constraints(src: Instance, kept: set[int]):
    pairs = frozenset(p for p in src.binary_forbidden if all(r.request_id in kept for r in p))
    triples = frozenset(t for t in src.ternary_forbidden if all(r.request_id in kept for r in t))
    return pairs, triples


def reduce(src: Instance, spec: ReductionSpec) -> Instance:
    """Shrink ``src`` to roughly ``spec.target_requests`` requests.

    Deterministic for a given (src, spec).  The output request count may
    exceed the target when the final constraint pick overshoots and all of
    its requests are pinned by surviving constraints; it never falls short.
    """
    if spec.target_requests > len(src.requests):
        raise ReductionError(
            f"target {spec.target_requests} exceeds source request count {len(src.requests)}"
        )
    rng = np.random.default_rng(spec.seed)

    constraints: list[tuple[VarRef, ...]] = sorted(src.binary_forbidden) + sorted(
        src.ternary_forbidden
    )
    order = rng.permutation(len(constraints)) if constraints else []

    kept: set[int] = set()
    pick_order: list[int] = []  # request ids in the order they were kept
    for idx in order:
        if len(kept) >= spec.target_requests:
            break
        for ref in constraints[idx]:
            if ref.request_id not in kept:
                kept.add(ref.request_id)
                pick_order.append(ref.request_id)

    used_random_fill = False
    if len(kept) < spec.target_requests:
        # Constraint picks cannot reach the target (few/no constraints):
        # fall back to uniform sampling over the remaining requests.
        used_random_fill = True
        remaining = [r.id for r in src.requests if r.id not in kept]
        fill = rng.permutation(len(remaining))
        for idx in fill:
            if len(kept) >= spec.target_requests:
                break
            kept.add(remaining[idx])
            pick_order.append(remaining[idx])

    # Trim overshoot: drop, most recently kept first, requests that no
    # surviving constraint needs.  Requests pinned by a constraint stay, so
    # the count may remain above the target.
    while len(kept) > spec.target_requests:
        pairs, triples = _retained_constraints(src, kept)
        needed = {ref.request_id for group in (pairs, triples) for c in group for ref in c}
        removable = next((rid for rid in reversed(pick_order) if rid not in needed), None)
        if removable is None:
            break
        kept.remove(removable)
        pick_order.remove(removable)

    requests = tuple(r for r in src.requests if r.id in kept)
    pairs, triples = _retained_constraints(src, kept)
    name = f"{src.name}-g{len(requests):03d}{'c' if spec.with_capacity else ''}-seed{spec.seed}"
    if used_random_fill:
        name += "-randfill"
    reduced = Instance(
        name=name,
        requests=requests,
        binary_forbidden=pairs,
        ternary_forbidden=triples,
        disk_capacity=None,
    )
    if spec.with_capacity:
        return derive_capacity(reduced)
    return strip_capacity(reduced)


def cheapest_camera_load(inst: Instance) -> int:
    """Total disk load if every request used its cheapest allowed camera."""
    return sum(min(r.capacity_for(cam) for cam in r.allowed_cameras) for r in inst.requests)


def derive_capacity(inst: Instance) -> Instance:
    """Attach a disk capacity of half the cheapest-camera total load, rounded up."""
    if not inst.has_capacity_data:
        raise ReductionError(f"instance {inst.name!r} carries no per-camera capacities")
    total = cheapest_camera_load(inst)
    if total == 0:
        warnings.warn(
            f"instance {inst.name!r}: every request can relay immediately; derived capacity is 0",
            stacklevel=2,
        )
    return replace(inst, disk_capacity=(total + 1) // 2)


def strip_capacity(inst: Instance) -> Instance:
    """Remove the disk budget and zero all per-request capacity requirements."""
    requests = tuple(replace(r, capacity_by_camera={}) for r in inst.requests)
    return replace(inst, requests=requests, disk_capacity=None)
