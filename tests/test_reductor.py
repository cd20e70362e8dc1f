import warnings

import numpy as np
import pytest

from satplan import (
    Instance,
    ReductionError,
    ReductionSpec,
    Request,
    VarRef,
    cheapest_camera_load,
    derive_capacity,
    parse_instance,
    reduce,
    serialize_instance,
    strip_capacity,
)
from helpers import random_instance


def _req(rid, cams=(1,), weight=1.0, caps=None):
    return Request(
        id=rid,
        kind="mono",
        weight=weight,
        allowed_cameras=cams,
        capacity_by_camera=caps or {},
    )


def test_forced_selection_single_triple():
    src = Instance(
        name="src",
        requests=tuple(_req(i) for i in range(5)),
        ternary_forbidden=frozenset({(VarRef(0, 1), VarRef(2, 1), VarRef(4, 1))}),
    )
    out = reduce(src, ReductionSpec(target_requests=3, with_capacity=False, seed=1))
    assert sorted(r.id for r in out.requests) == [0, 2, 4]
    assert out.ternary_forbidden == src.ternary_forbidden


def test_reduction_is_deterministic():
    rng = np.random.default_rng(3)
    src = random_instance(rng, n_requests=12, n_pairs=6, n_triples=3, with_capacity=True, name="det")
    spec = ReductionSpec(target_requests=6, with_capacity=True, seed=99)
    a = serialize_instance(reduce(src, spec))
    b = serialize_instance(reduce(src, spec))
    assert a == b


def test_target_larger_than_source_rejected():
    src = Instance(name="s", requests=(_req(0),))
    with pytest.raises(ReductionError):
        reduce(src, ReductionSpec(target_requests=2, with_capacity=False, seed=0))


def test_zero_constraint_source_falls_back_to_random_fill():
    src = Instance(name="s", requests=tuple(_req(i) for i in range(6)))
    out = reduce(src, ReductionSpec(target_requests=3, with_capacity=False, seed=5))
    assert len(out.requests) == 3
    assert "randfill" in out.name
    assert "seed5" in out.name


def test_reduced_constraints_always_resolve():
    rng = np.random.default_rng(23)
    for trial in range(100):
        src = random_instance(
            rng,
            n_requests=int(rng.integers(4, 14)),
            n_pairs=int(rng.integers(0, 5)),
            n_triples=int(rng.integers(0, 4)),
            with_capacity=True,
            name=f"src{trial}",
        )
        target = int(rng.integers(1, len(src.requests) + 1))
        with_cap = bool(rng.integers(0, 2)) and src.has_capacity_data
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = reduce(
                    src, ReductionSpec(target_requests=target, with_capacity=with_cap, seed=trial)
                )
            except ReductionError:
                # capacity variant undefined when no surviving request uses disk
                assert with_cap
                continue
        # a capacity of 0, where every kept request relays at once, is warned of
        zero = [w for w in caught if "derived capacity is 0" in str(w.message)]
        assert len(zero) == len(caught) == int(out.disk_capacity == 0)
        # Instance construction re-validates every reference; also check
        # nothing was invented and the target was reached.
        assert len(out.requests) >= target
        src_ids = {r.id for r in src.requests}
        assert {r.id for r in out.requests} <= src_ids
        assert out.binary_forbidden <= src.binary_forbidden
        assert out.ternary_forbidden <= src.ternary_forbidden
        parse_instance(serialize_instance(out))


def test_derive_capacity_examples():
    inst = Instance(
        name="two",
        requests=(
            _req(0, cams=(1, 2), caps={1: 3, 2: 7}),
            _req(1, cams=(1,), caps={1: 5}),
        ),
    )
    assert cheapest_camera_load(inst) == 8
    assert derive_capacity(inst).disk_capacity == 4

    single = Instance(name="one", requests=(_req(0, caps={1: 1}),))
    assert derive_capacity(single).disk_capacity == 1


def test_derive_capacity_all_zero_warns():
    inst = Instance(name="z", requests=(_req(0, caps={1: 0}),))
    with pytest.warns(UserWarning):
        out = derive_capacity(inst)
    assert out.disk_capacity == 0


def test_derive_capacity_requires_capacity_data():
    inst = Instance(name="n", requests=(_req(0),))
    with pytest.raises(ReductionError):
        derive_capacity(inst)


def test_derive_capacity_changes_nothing_else():
    rng = np.random.default_rng(31)
    inst = random_instance(rng, n_requests=6, n_pairs=2, n_triples=1, with_capacity=True, name="d")
    if not inst.has_capacity_data:
        pytest.skip("draw produced no capacities")
    out = derive_capacity(inst)
    assert out.requests == inst.requests
    assert out.binary_forbidden == inst.binary_forbidden
    assert out.ternary_forbidden == inst.ternary_forbidden


def test_strip_capacity():
    inst = Instance(name="c", requests=(_req(0, caps={1: 2}),), disk_capacity=1)
    stripped = strip_capacity(inst)
    assert stripped.disk_capacity is None
    assert all(not r.capacity_by_camera for r in stripped.requests)
    assert strip_capacity(stripped) == stripped  # idempotent


def test_strip_after_derive_equals_strip():
    rng = np.random.default_rng(37)
    for trial in range(20):
        inst = random_instance(
            rng, n_requests=int(rng.integers(1, 7)), with_capacity=True, name=f"sd{trial}"
        )
        if not inst.has_capacity_data:
            continue
        if cheapest_camera_load(inst) == 0:
            with pytest.warns(UserWarning, match="derived capacity is 0"):
                derived = derive_capacity(inst)
        else:
            derived = derive_capacity(inst)
        assert strip_capacity(derived) == strip_capacity(inst)
