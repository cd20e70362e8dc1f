"""Build a mission-planning instance by hand, round-trip it through the JSON
format, check feasibility of a few selections, and solve it exactly.

Run:  python3 demos/01_instances_and_exact_solving.py
"""

from satplan import (
    Assignment,
    Instance,
    Request,
    VarRef,
    check_feasible,
    objective,
    parse_instance,
    serialize_instance,
    solve_exact,
)

# ---------------------------------------------------------------------------
# Five requests over one orbital pass.  Request 2 is a stereo image, so it
# needs the paired cameras 1+3 (virtual camera 4).  Two selections are
# geographically incompatible, one triple saturates the instantaneous data
# flow, and the on-board disk holds 6 units.
# ---------------------------------------------------------------------------
instance = Instance(
    name="demo-pass",
    requests=(
        Request(id=0, kind="mono", weight=3.0, allowed_cameras=(1, 2), capacity_by_camera={1: 2, 2: 3}),
        Request(id=1, kind="mono", weight=1.0, allowed_cameras=(2,), capacity_by_camera={2: 2}),
        Request(id=2, kind="stereo", weight=4.0, allowed_cameras=(4,), capacity_by_camera={4: 4}),
        Request(id=3, kind="mono", weight=2.0, allowed_cameras=(1, 3)),
        Request(id=4, kind="mono", weight=2.0, allowed_cameras=(3,)),
    ),
    binary_forbidden=frozenset({(VarRef(0, 1), VarRef(3, 1))}),
    ternary_forbidden=frozenset({(VarRef(1, 2), VarRef(3, 3), VarRef(4, 3))}),
    disk_capacity=6,
)

print(f"instance {instance.name!r}: {len(instance.requests)} requests,"
      f" {len(instance.variables)} decision variables")
print("variable order:", ", ".join(f"x{i}=({r.request_id},cam{r.camera})"
                                   for i, r in enumerate(instance.variables)))

# The file format round-trips bit-exactly.
text = serialize_instance(instance)
assert parse_instance(text) == instance
print(f"\ncanonical JSON is {len(text)} bytes; parse(serialize(.)) == identity")

# ---------------------------------------------------------------------------
# Feasibility checking names every violated constraint.
# ---------------------------------------------------------------------------
greedy = Assignment.from_map({0: 1, 1: 2, 2: 4, 3: 1, 4: 3})
report = check_feasible(instance, greedy)
print(f"\ntake everything: value={objective(instance, greedy)}, feasible={report.feasible}")
for v in report.violations:
    extra = f" (over by {v.slack_amount})" if v.kind == "capacity" else ""
    print(f"  violated {v.kind}: {v.refs}{extra}")

# ---------------------------------------------------------------------------
# Branch-and-bound reference solution.
# ---------------------------------------------------------------------------
result = solve_exact(instance)
print(f"\nexact optimum F_max = {result.best_value}"
      f" (proven={result.proven_optimal}, {result.nodes_explored} nodes)")
print("optimal selection:", result.best_assignment.camera_map())
assert check_feasible(instance, result.best_assignment).feasible
