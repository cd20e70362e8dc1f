"""Mission-planning instance model: domain types, JSON file format, validation.

An instance is a set of imaging requests competing for one orbital pass.
Mono requests can be taken by one of the physical cameras 1-3; stereo
requests need the paired cameras 1+3, modelled as the virtual camera 4.
Feasibility is governed by four constraint families: each request taken at
most once, forbidden (request, camera) pairs, forbidden triples, and an
optional total disk capacity.

Variable order is fixed once per instance: requests in file order, cameras
ascending within each request.  This order defines the flattened bit-vector
layout that every downstream module (solver, encoder, samplers, metrics)
relies on, so two parses of the same file always agree on the index map.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite
from typing import Iterable, Mapping, NamedTuple

import numpy as np

MONO_CAMERAS = (1, 2, 3)
STEREO_CAMERA = 4

KIND_MONO = "mono"
KIND_STEREO = "stereo"
_INT64_MAX = int(np.iinfo(np.int64).max)


class InstanceError(ValueError):
    """Base class for instance file / model errors."""


class InstanceSyntaxError(InstanceError):
    """The input is not well-formed JSON."""


class InstanceSchemaError(InstanceError):
    """The JSON does not match the instance schema (missing/extra/mistyped field)."""


class InstanceSemanticError(InstanceError):
    """Structurally valid data that violates a model invariant."""


class VarRef(NamedTuple):
    """A (request, camera) decision variable reference."""

    request_id: int
    camera: int


@dataclass(frozen=True)
class Request:
    """One imaging request.

    ``capacity_by_camera`` maps a camera id to the integer disk units the
    image occupies when taken with that camera; an absent camera means zero
    (the orbit point is close enough to a ground station for immediate
    relay).
    """

    id: int
    kind: str
    weight: float
    allowed_cameras: tuple[int, ...]
    capacity_by_camera: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed_cameras", tuple(sorted(self.allowed_cameras)))
        object.__setattr__(self, "capacity_by_camera", dict(self.capacity_by_camera))
        _validate_request(self)

    def capacity_for(self, camera: int) -> int:
        return self.capacity_by_camera.get(camera, 0)


def _validate_request(req: Request) -> None:
    if not isinstance(req.id, int) or isinstance(req.id, bool) or req.id < 0:
        raise InstanceSemanticError(f"request id must be a non-negative integer, got {req.id!r}")
    if req.kind not in (KIND_MONO, KIND_STEREO):
        raise InstanceSemanticError(f"request {req.id}: unknown kind {req.kind!r}")
    try:
        finite = isfinite(req.weight)
    except OverflowError:  # an integer past the largest float
        finite = False
    if not finite or req.weight < 0:
        raise InstanceSemanticError(f"request {req.id}: weight must be finite and >= 0")
    cams = req.allowed_cameras
    if len(cams) != len(set(cams)):
        raise InstanceSemanticError(f"request {req.id}: duplicate allowed cameras")
    if req.kind == KIND_STEREO:
        if cams != (STEREO_CAMERA,):
            raise InstanceSemanticError(
                f"request {req.id}: stereo requests must allow exactly camera {STEREO_CAMERA}"
            )
    else:
        if not cams or not set(cams) <= set(MONO_CAMERAS):
            raise InstanceSemanticError(
                f"request {req.id}: mono requests need a non-empty subset of cameras {MONO_CAMERAS}"
            )
    for cam, cap in req.capacity_by_camera.items():
        if cam not in cams:
            raise InstanceSemanticError(
                f"request {req.id}: capacity given for camera {cam} not in allowed_cameras"
            )
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
            raise InstanceSemanticError(
                f"request {req.id}: capacity for camera {cam} must be a non-negative integer"
            )


def _canonical(refs: Iterable[VarRef]) -> tuple[VarRef, ...]:
    return tuple(sorted(VarRef(*ref) for ref in refs))


@dataclass(frozen=True)
class Instance:
    """A validated, immutable mission-planning instance.

    ``binary_forbidden`` / ``ternary_forbidden`` hold the forbidden pair and
    triple sets as canonically sorted VarRef tuples.  ``disk_capacity`` is
    None for non-capacity instances, in which case all per-camera capacities
    are ignored downstream.
    """

    name: str
    requests: tuple[Request, ...]
    binary_forbidden: frozenset[tuple[VarRef, VarRef]] = frozenset()
    ternary_forbidden: frozenset[tuple[VarRef, VarRef, VarRef]] = frozenset()
    disk_capacity: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))
        for group in ("binary_forbidden", "ternary_forbidden"):
            object.__setattr__(self, group, frozenset(map(_canonical, getattr(self, group))))
        self._validate()

    def _validate(self) -> None:
        if len(self.request_by_id) != len(self.requests):
            raise InstanceSemanticError(f"instance {self.name!r}: duplicate request ids")
        if self.disk_capacity is not None:
            cap = self.disk_capacity
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
                raise InstanceSemanticError(
                    f"instance {self.name!r}: disk_capacity must be a non-negative integer"
                )
            # the QUBO holds the capacity and loads as floats, and the scorer
            # sums a sample's loads in int64
            loads = [load for req in self.requests for load in req.capacity_by_camera.values()]
            if max([cap, *loads]) > sys.float_info.max:
                raise InstanceSemanticError(
                    f"instance {self.name!r}: a disk capacity or load exceeds the largest float"
                )
            if sum(loads) > _INT64_MAX:
                raise InstanceSemanticError(
                    f"instance {self.name!r}: loads sum past 2^63 - 1, the scorer's int64 limit"
                )
        for group, arity in ((self.binary_forbidden, 2), (self.ternary_forbidden, 3)):
            for refs in group:
                if len(set(refs)) != arity:
                    raise InstanceSemanticError(
                        f"instance {self.name!r}: constraint {refs} "
                        f"must name {arity} distinct variables"
                    )
                for ref in refs:
                    req = self.request_by_id.get(ref.request_id)
                    if req is None:
                        raise InstanceSemanticError(
                            f"instance {self.name!r}: constraint references unknown request {ref.request_id}"
                        )
                    if ref.camera not in req.allowed_cameras:
                        raise InstanceSemanticError(
                            f"instance {self.name!r}: constraint references camera {ref.camera} "
                            f"not allowed for request {ref.request_id}"
                        )

    @cached_property
    def request_by_id(self) -> dict[int, Request]:
        return {r.id: r for r in self.requests}

    @cached_property
    def variables(self) -> tuple[VarRef, ...]:
        """Flattened decision-variable order: file order, cameras ascending."""
        return tuple(
            VarRef(req.id, cam) for req in self.requests for cam in req.allowed_cameras
        )

    @cached_property
    def variable_index(self) -> dict[VarRef, int]:
        return {ref: i for i, ref in enumerate(self.variables)}

    @cached_property
    def total_weight(self) -> float:
        return float(sum(r.weight for r in self.requests))

    @property
    def has_capacity_data(self) -> bool:
        return any(r.capacity_by_camera for r in self.requests)

    def weight_of(self, request_id: int) -> float:
        return self.request_by_id[request_id].weight

    def capacity_of(self, ref: VarRef) -> int:
        return self.request_by_id[ref.request_id].capacity_for(ref.camera)


@dataclass(frozen=True)
class Assignment:
    """A selection of (request, camera) pairs.

    Built from a request->camera map it satisfies the at-most-once
    constraint by construction.  Built from a raw bit vector it may carry
    several cameras for one request; that is kept as-is and reported as an
    infeasibility downstream, never silently repaired.
    """

    taken: tuple[VarRef, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "taken", _canonical(self.taken))

    @classmethod
    def from_map(cls, chosen: Mapping[int, int]) -> "Assignment":
        return cls(tuple(VarRef(req, cam) for req, cam in chosen.items()))

    @classmethod
    def from_bits(cls, inst: Instance, bits) -> "Assignment":
        order = inst.variables
        if len(bits) != len(order):
            raise ValueError(f"expected {len(order)} decision bits, got {len(bits)}")
        return cls(tuple(ref for ref, b in zip(order, bits) if b))

    def to_bits(self, inst: Instance) -> np.ndarray:
        index = inst.variable_index
        bits = np.zeros(len(inst.variables), dtype=np.uint8)
        for ref in self.taken:
            try:
                bits[index[ref]] = 1
            except KeyError:
                raise ValueError(f"assignment references unknown variable {ref}") from None
        return bits

    def camera_map(self) -> dict[int, int]:
        """request -> camera view; raises if some request has several cameras set."""
        chosen: dict[int, int] = {}
        for ref in self.taken:
            if ref.request_id in chosen:
                raise ValueError(f"request {ref.request_id} taken with more than one camera")
            chosen[ref.request_id] = ref.camera
        return chosen


# --- JSON file format -----------------------------------------------------

_TOP_FIELDS = {"name", "requests", "binary_forbidden", "ternary_forbidden", "disk_capacity"}
_REQ_FIELDS = {"id", "kind", "weight", "allowed_cameras", "capacity_by_camera"}


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise InstanceSchemaError(msg)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_ref(obj, where: str) -> list:
    _expect(
        isinstance(obj, list) and len(obj) == 2 and all(_is_int(v) for v in obj),
        f"{where}: a variable reference must be a [request_id, camera] pair of integers",
    )
    return obj


def _parse_request(obj, pos: int) -> Request:
    where = f"requests[{pos}]"
    _expect(isinstance(obj, dict), f"{where}: must be an object")
    unknown = set(obj) - _REQ_FIELDS
    _expect(not unknown, f"{where}: unknown fields {sorted(unknown)}")
    for name in ("id", "kind", "weight", "allowed_cameras"):
        _expect(name in obj, f"{where}: missing field {name!r}")
    _expect(_is_int(obj["id"]), f"{where}: id must be an integer")
    _expect(
        obj["kind"] in (KIND_MONO, KIND_STEREO),
        f"{where}: kind must be '{KIND_MONO}' or '{KIND_STEREO}'",
    )
    _expect(_is_number(obj["weight"]), f"{where}: weight must be a number")
    cams = obj["allowed_cameras"]
    _expect(
        isinstance(cams, list) and all(_is_int(c) for c in cams),
        f"{where}: allowed_cameras must be a list of integers",
    )
    try:
        weight = float(obj["weight"])
    except OverflowError:  # an integer literal past the largest float
        raise InstanceSemanticError(f"{where}: weight must be finite and >= 0") from None
    caps: dict[int, int] = {}
    if "capacity_by_camera" in obj:
        raw = obj["capacity_by_camera"]
        _expect(isinstance(raw, dict), f"{where}: capacity_by_camera must be an object")
        for key, val in raw.items():
            try:
                cam = int(key)
            except ValueError:
                cam = None
            # only the canonical spelling, so no two keys name one camera
            _expect(
                cam is not None and str(cam) == key,
                f"{where}: capacity_by_camera keys must be camera ids, got {key!r}",
            )
            caps[cam] = val
    return Request(
        id=obj["id"],
        kind=obj["kind"],
        weight=weight,
        allowed_cameras=tuple(cams),
        capacity_by_camera=caps,
    )


def parse_instance(text: bytes | str) -> Instance:
    """Parse and validate an instance document.

    Raises :class:`InstanceSyntaxError` for malformed JSON,
    :class:`InstanceSchemaError` for shape/type problems, and
    :class:`InstanceSemanticError` for invariant violations.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceSyntaxError(f"malformed JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "top level must be an object")
    unknown = set(doc) - _TOP_FIELDS
    _expect(not unknown, f"unknown top-level fields {sorted(unknown)}")
    for name in ("name", "requests", "binary_forbidden", "ternary_forbidden"):
        _expect(name in doc, f"missing field {name!r}")
    _expect(isinstance(doc["name"], str), "name must be a string")
    _expect(isinstance(doc["requests"], list), "requests must be an array")
    requests = tuple(_parse_request(r, i) for i, r in enumerate(doc["requests"]))

    def parse_group(key: str, arity: int):
        raw = doc[key]
        _expect(isinstance(raw, list), f"{key} must be an array")
        seen = set()
        out = []
        for i, entry in enumerate(raw):
            where = f"{key}[{i}]"
            _expect(
                isinstance(entry, list) and len(entry) == arity,
                f"{where}: must list exactly {arity} variable references",
            )
            refs = _canonical(_check_ref(r, where) for r in entry)
            if refs in seen:
                raise InstanceSemanticError(f"{where}: duplicate constraint {refs}")
            seen.add(refs)
            out.append(refs)
        return out

    pairs = parse_group("binary_forbidden", 2)
    triples = parse_group("ternary_forbidden", 3)

    return Instance(
        name=doc["name"],
        requests=requests,
        binary_forbidden=frozenset(pairs),
        ternary_forbidden=frozenset(triples),
        disk_capacity=_parse_capacity(doc),
    )


def _parse_capacity(doc) -> int | None:
    if "disk_capacity" not in doc:
        return None
    cap = doc["disk_capacity"]
    _expect(_is_int(cap), "disk_capacity must be an integer")
    return cap


def serialize_instance(inst: Instance) -> bytes:
    """Canonical JSON encoding; ``parse_instance`` of the output round-trips.

    Keys are sorted, constraint arrays are sorted by their variable
    references, empty constraint sets stay as empty arrays, and the
    disk_capacity field is present only on capacity instances.
    """
    doc: dict = {
        "name": inst.name,
        "requests": [_request_doc(r) for r in inst.requests],
        "binary_forbidden": [
            [list(ref) for ref in pair] for pair in sorted(inst.binary_forbidden)
        ],
        "ternary_forbidden": [
            [list(ref) for ref in triple] for triple in sorted(inst.ternary_forbidden)
        ],
    }
    if inst.disk_capacity is not None:
        doc["disk_capacity"] = inst.disk_capacity
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _request_doc(req: Request) -> dict:
    doc: dict = {
        "id": req.id,
        "kind": req.kind,
        "weight": req.weight,
        "allowed_cameras": list(req.allowed_cameras),
    }
    if req.capacity_by_camera:
        doc["capacity_by_camera"] = {
            str(cam): req.capacity_by_camera[cam] for cam in sorted(req.capacity_by_camera)
        }
    return doc


def load_instance(path) -> Instance:
    with open(path, "rb") as fh:
        return parse_instance(fh.read())


def save_instance(inst: Instance, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_instance(inst))
