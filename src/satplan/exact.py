"""Objective evaluation, feasibility checking, and an exact reference solver.

The solver is a depth-first branch-and-bound over requests in file order.
Each node decides one request: take it with one of its allowed cameras or
skip it.  The bound adds the weights of all undecided requests to the
current value, which is admissible because weights are non-negative.
Constraint violations are pruned incrementally; all constraint families are
monotone under taking more requests, so a violated partial selection can
never recover.

The search is a loop over an explicit stack of unvisited nodes
``(request, value, load, taken bits)``, so its depth is not limited by
Python's recursion limit.  The taken selection is one int bitmask over the
flattened variables; each variable carries a pair-conflict mask and one
two-bit mask per forbidden triple it belongs to.  A node pushes its skip
child first and its take children highest camera first, so children pop
lowest camera first and skip last: the tree, the node count, the budget
cut-off and the first-found tie-break are those of the plain recursion
that visits cameras in ascending order and then the skip.

Repeated subtrees are replayed rather than walked again.  Below a node at
request k, the plain tree depends only on its signature ``(k, value, load,
taken & future[k])`` and the incumbent, where ``future[k]`` holds the bits
of requests 0..k-1 that some pair or triple mask of requests k..n-1 reads.
While no leaf beats the incumbent, the subtree's node count and pruning
are fixed by that signature.  An expanded node pushes an exit marker under
its children; when the marker pops with the incumbent unchanged, the
subtree's node count is stored under its signature.  A later node with the
same signature adds that count instead of expanding, provided the count
still fits in the budget; otherwise it is expanded as usual.  The memo
holds counts for the current incumbent only: it is emptied whenever the
incumbent improves, because entries made under an older incumbent can never
match again, and whenever it reaches ``MEMO_ENTRIES`` entries, which keeps
it near 64 MB.  What the memo holds never changes the result:
``nodes_explored``, the budget cut-off and the tie-break are those of the
plain tree.  With only local conflicts, as in SPOT5, most subtrees repeat;
where conflicts join requests far apart, hits are rare and the search runs
at about half the plain loop's speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Assignment, Instance, VarRef

ONCE = "once"
PAIR = "pair"
TERNARY = "ternary"
CAPACITY = "capacity"

DEFAULT_NODE_BUDGET = 50_000_000
# subtree signatures kept before the memo is emptied: about 210 B each
# with the dict's own table, so the memo stays under 64 MB
MEMO_ENTRIES = 300_000


@dataclass(frozen=True)
class Violation:
    kind: str
    refs: tuple[VarRef, ...]
    slack_amount: int = 0


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[Violation, ...]

    def __post_init__(self) -> None:
        assert self.feasible == (not self.violations)


@dataclass(frozen=True)
class ExactResult:
    best_value: float
    best_assignment: Assignment
    nodes_explored: int
    proven_optimal: bool


def objective(inst: Instance, a: Assignment) -> float:
    """Total value of the selection, one weight term per taken (request, camera)
    pair, added one by one in variable order (requests in file order), as
    ``solve_exact`` adds them, so an optimum's value equals ``best_value``."""
    value = 0.0
    for ref, bit in zip(inst.variables, a.to_bits(inst)):
        if bit:
            value += inst.weight_of(ref.request_id)
    return value


def check_feasible(inst: Instance, a: Assignment) -> FeasibilityReport:
    """Report every violated constraint of the selection."""
    taken = set(a.taken)
    for ref in taken:
        req = inst.request_by_id.get(ref.request_id)
        if req is None or ref.camera not in req.allowed_cameras:
            raise ValueError(f"assignment references invalid variable {ref}")
    violations: list[Violation] = []

    by_request: dict[int, list[VarRef]] = {}
    for ref in a.taken:
        by_request.setdefault(ref.request_id, []).append(ref)
    for rid in sorted(by_request):
        refs = by_request[rid]
        if len(refs) > 1:
            violations.append(Violation(ONCE, tuple(refs)))

    for pair in sorted(inst.binary_forbidden):
        if all(ref in taken for ref in pair):
            violations.append(Violation(PAIR, pair))
    for triple in sorted(inst.ternary_forbidden):
        if all(ref in taken for ref in triple):
            violations.append(Violation(TERNARY, triple))

    if inst.disk_capacity is not None:
        load = sum(inst.capacity_of(ref) for ref in taken)
        if load > inst.disk_capacity:
            offending = tuple(sorted(ref for ref in taken if inst.capacity_of(ref) > 0))
            violations.append(
                Violation(CAPACITY, offending, slack_amount=load - inst.disk_capacity)
            )

    return FeasibilityReport(feasible=not violations, violations=tuple(violations))


def solve_exact(inst: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> ExactResult:
    """Exact maximum-value feasible selection via branch-and-bound.

    Returns the optimum with ``proven_optimal=True`` unless the node budget
    ran out, in which case the best incumbent found so far is returned.
    Ties between equal-value optima go to the first one found in
    depth-first order.  Nodes are counted, checked against the budget and
    bounded when popped from the explicit stack, exactly where a recursive
    search would on entry; there is no depth limit.

    A subtree whose signature (request, value, load, the taken bits later
    requests read) was already walked under the same incumbent is replayed:
    its stored node count is added instead of walking it again, unless that
    would cross the budget.  ``nodes_explored`` and the budget still count
    the nodes of the plain tree, so the result equals the plain search's.
    The memo is emptied at ``MEMO_ENTRIES`` entries to bound its memory.
    """
    index = inst.variable_index
    n_req = len(inst.requests)
    weights = [req.weight for req in inst.requests]
    suffix = [0.0] * (n_req + 1)
    for k in range(n_req - 1, -1, -1):
        suffix[k] = suffix[k + 1] + weights[k]

    n_var = len(inst.variables)
    pair_mask = [0] * n_var
    for p, q in inst.binary_forbidden:
        pair_mask[index[p]] |= 1 << index[q]
        pair_mask[index[q]] |= 1 << index[p]
    triple_masks: list[list[int]] = [[] for _ in range(n_var)]
    for t in inst.ternary_forbidden:
        i, j, k = (index[r] for r in t)
        triple_masks[i].append((1 << j) | (1 << k))
        triple_masks[j].append((1 << i) | (1 << k))
        triple_masks[k].append((1 << i) | (1 << j))

    if inst.disk_capacity is None:  # capacities ignored: every load is 0 and fits
        limit, caps = 0, [0] * n_var
    else:
        limit, caps = inst.disk_capacity, [inst.capacity_of(ref) for ref in inst.variables]

    # per request, (bit, pair mask, triple masks, capacity) of each camera,
    # highest camera first: pushed in this order, the lowest camera pops first
    choices = []
    first_var = []
    pos = 0
    for req in inst.requests:
        first_var.append(pos)
        ids = range(pos + len(req.allowed_cameras) - 1, pos - 1, -1)
        choices.append(tuple((1 << v, pair_mask[v], tuple(triple_masks[v]), caps[v]) for v in ids))
        pos += len(req.allowed_cameras)

    # future[k]: the bits of requests 0..k-1 that a mask of requests k..n-1 reads
    future = [0] * n_req
    reads = 0
    for k in range(n_req - 1, -1, -1):
        for _, pairs, triples, _ in choices[k]:
            reads |= pairs
            for m in triples:
                reads |= m
        future[k] = reads & ((1 << first_var[k]) - 1)

    nodes = 0
    best_value = 0.0
    best_taken = 0
    exhausted = False
    memo: dict[tuple, int] = {}  # signature -> node count of its subtree
    memo_entries = MEMO_ENTRIES
    # unvisited nodes (request, value, load, taken bits) and exit markers
    # (-1, signature, nodes before the subtree, incumbent value when entered)
    stack: list[tuple] = [(0, 0.0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        k, value, load, taken = pop()
        if k < 0:  # the marked subtree is done
            if taken == best_value:  # and kept the incumbent: its count is reusable
                if len(memo) >= memo_entries:
                    memo.clear()
                memo[value] = nodes - load
            continue
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            break
        if k == n_req:
            if value > best_value:
                best_value, best_taken = value, taken
                memo.clear()  # every stored count assumed the old incumbent
            continue
        if value + suffix[k] <= best_value:
            continue  # no completion can beat the incumbent
        key = (k, value, load, taken & future[k])
        size = memo.get(key)
        if size is not None and nodes - 1 + size <= node_budget:
            nodes += size - 1  # replay: the same subtree, already walked
            continue
        push((-1, key, nodes - 1, best_value))
        push((k + 1, value, load, taken))  # skip request k, visited after every take
        taken_value = value + weights[k]
        for bit, pairs, triples, cap in choices[k]:
            if taken & pairs or load + cap > limit:
                continue
            if triples and any(taken & m == m for m in triples):
                continue
            push((k + 1, taken_value, load + cap, taken | bit))

    return ExactResult(
        best_value=best_value,
        best_assignment=Assignment(
            tuple(ref for v, ref in enumerate(inst.variables) if best_taken >> v & 1)
        ),
        nodes_explored=nodes,
        proven_optimal=not exhausted,
    )
