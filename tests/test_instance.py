import json

import numpy as np
import pytest

from satplan import (
    Assignment,
    Instance,
    InstanceSchemaError,
    InstanceSemanticError,
    InstanceSyntaxError,
    Request,
    VarRef,
    parse_instance,
    serialize_instance,
)
from helpers import random_instance

MINIMAL = """
{
  "name": "tiny",
  "requests": [
    {"id": 0, "kind": "mono", "weight": 1, "allowed_cameras": [1]}
  ],
  "binary_forbidden": [],
  "ternary_forbidden": []
}
"""


def test_parse_minimal_instance():
    inst = parse_instance(MINIMAL)
    assert len(inst.requests) == 1
    assert len(inst.variables) == 1
    assert inst.variables == (VarRef(0, 1),)
    assert inst.disk_capacity is None


def test_stereo_must_use_camera_four():
    doc = json.loads(MINIMAL)
    doc["requests"][0].update(kind="stereo", allowed_cameras=[1, 3])
    with pytest.raises(InstanceSemanticError):
        parse_instance(json.dumps(doc))


def test_malformed_json_is_a_syntax_error():
    with pytest.raises(InstanceSyntaxError):
        parse_instance("{not json")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("requests"),
        lambda d: d.__setitem__("name", 7),
        lambda d: d.__setitem__("extra", 1),
        lambda d: d["requests"][0].pop("weight"),
        lambda d: d["requests"][0].__setitem__("weight", "heavy"),
        lambda d: d["requests"][0].__setitem__("kind", "pano"),
        lambda d: d.__setitem__("disk_capacity", 2.5),
    ],
)
def test_schema_errors(mutate):
    doc = json.loads(MINIMAL)
    mutate(doc)
    with pytest.raises(InstanceSchemaError):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["requests"][0].__setitem__("weight", -1),
        lambda d: d["requests"][0].__setitem__("allowed_cameras", []),
        lambda d: d["requests"][0].__setitem__("allowed_cameras", [4]),
        lambda d: d["requests"][0].__setitem__("capacity_by_camera", {"2": 1}),
        lambda d: d["requests"][0].__setitem__("capacity_by_camera", {"1": 1.5}),
        lambda d: d.__setitem__("binary_forbidden", [[[0, 1], [0, 3]]]),
        lambda d: d.__setitem__("disk_capacity", -1),
    ],
)
def test_semantic_errors(mutate):
    doc = json.loads(MINIMAL)
    mutate(doc)
    with pytest.raises(InstanceSemanticError):
        parse_instance(json.dumps(doc))


def test_duplicate_constraint_rejected():
    doc = json.loads(MINIMAL)
    doc["requests"].append(
        {"id": 1, "kind": "mono", "weight": 1, "allowed_cameras": [1, 2]}
    )
    doc["binary_forbidden"] = [[[0, 1], [1, 2]], [[1, 2], [0, 1]]]
    with pytest.raises(InstanceSemanticError):
        parse_instance(json.dumps(doc))


def test_round_trip_identity_on_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(30):
        inst = random_instance(
            rng,
            n_requests=int(rng.integers(1, 7)),
            n_pairs=int(rng.integers(0, 3)),
            n_triples=int(rng.integers(0, 3)),
            with_capacity=bool(rng.integers(0, 2)),
            name=f"rt{trial}",
        )
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text


def test_canonical_form_details():
    inst = parse_instance(MINIMAL)
    doc = json.loads(serialize_instance(inst))
    assert doc["binary_forbidden"] == []
    assert doc["ternary_forbidden"] == []
    assert "disk_capacity" not in doc
    # capacity instances keep the field
    cap = Instance(
        name="c",
        requests=(
            Request(id=0, kind="mono", weight=1.0, allowed_cameras=(1,), capacity_by_camera={1: 2}),
        ),
        disk_capacity=1,
    )
    assert json.loads(serialize_instance(cap))["disk_capacity"] == 1


def test_variable_order_is_deterministic():
    rng = np.random.default_rng(11)
    inst = random_instance(rng, n_requests=5, n_pairs=2, n_triples=1, name="order")
    text = serialize_instance(inst)
    a, b = parse_instance(text), parse_instance(text)
    assert a.variables == b.variables
    assert a.variable_index == b.variable_index


def test_constraint_refs_resolve_to_flat_indices():
    rng = np.random.default_rng(13)
    inst = random_instance(rng, n_requests=6, n_pairs=3, n_triples=2, name="resolve")
    for group in (inst.binary_forbidden, inst.ternary_forbidden):
        for refs in group:
            for ref in refs:
                assert ref in inst.variable_index


def test_variable_count_examples():
    stereo = Instance(
        name="s", requests=(Request(id=0, kind="stereo", weight=1.0, allowed_cameras=(4,)),)
    )
    assert len(stereo.variables) == 1
    two_mono = Instance(
        name="m",
        requests=(
            Request(id=0, kind="mono", weight=1.0, allowed_cameras=(1, 2, 3)),
            Request(id=1, kind="mono", weight=1.0, allowed_cameras=(1, 2, 3)),
        ),
    )
    assert len(two_mono.variables) == 6


def test_variable_count_matches_flattened_length():
    rng = np.random.default_rng(17)
    for trial in range(10):
        inst = random_instance(rng, n_requests=int(rng.integers(1, 8)), name=f"vc{trial}")
        a = Assignment.from_map({inst.requests[0].id: inst.requests[0].allowed_cameras[0]})
        assert len(a.to_bits(inst)) == len(inst.variables)


def test_assignment_from_bits_round_trip():
    rng = np.random.default_rng(19)
    for trial in range(20):
        inst = random_instance(rng, n_requests=int(rng.integers(1, 7)), name=f"ab{trial}")
        n = len(inst.variables)
        bits = rng.integers(0, 2, size=n)
        a = Assignment.from_bits(inst, bits)
        assert np.array_equal(a.to_bits(inst), bits.astype(np.uint8))


def test_multi_camera_bits_kept_not_repaired():
    inst = parse_instance(MINIMAL.replace('"allowed_cameras": [1]', '"allowed_cameras": [1, 2]'))
    a = Assignment.from_bits(inst, [1, 1])
    assert len(a.taken) == 2
    with pytest.raises(ValueError):
        a.camera_map()
