"""Independent reference solvers the benchmark checks the program against.

Plain Python with no ``repro`` import, so a defect in the program under
test cannot hide in its own check.
"""

from __future__ import annotations

from collections import deque


def reach(graph) -> set[int]:
    """Nodes reachable from ``graph.sources`` (breadth-first search)."""
    succ: dict[int, list[int]] = {}
    for s, d in graph.edges:
        succ.setdefault(s, []).append(d)
    seen = set(graph.sources)
    queue = deque(seen)
    while queue:
        for d in succ.get(queue.popleft(), ()):
            if d not in seen:
                seen.add(d)
                queue.append(d)
    return seen


def reach_unreached(graph) -> tuple[set[int], set[int]]:
    """``Reach`` and its complement over ``range(graph.nodes)``."""
    reached = reach(graph)
    return reached, set(range(graph.nodes)) - reached


def andersen(statements) -> set[tuple[int, int]]:
    """Inclusion-based points-to facts ``(pointer, object)``, by worklist.

    A location is re-queued whenever its points-to set grows; each visit
    re-applies every constraint that reads it, until the queue drains.
    """
    pts: dict[int, set[int]] = {}
    copies_into: dict[int, list[int]] = {}  # q -> [p] for p = q
    loads_from: dict[int, list[int]] = {}  # q -> [p] for p = *q
    stores_into: dict[int, list[int]] = {}  # p -> [q] for *p = q
    for kind, lhs, rhs in statements:
        if kind == "Addr":
            pts.setdefault(lhs, set()).add(rhs)
        elif kind == "Copy":
            copies_into.setdefault(rhs, []).append(lhs)
        elif kind == "Load":
            loads_from.setdefault(rhs, []).append(lhs)
        elif kind == "Store":
            stores_into.setdefault(lhs, []).append(rhs)
        else:
            raise ValueError(f"unknown statement kind {kind!r}")
    # flows[src] holds dst with pts(dst) ⊇ pts(src); loads and stores add
    # such edges as the points-to sets they dereference grow.
    flows: dict[int, set[int]] = {q: set(ps) for q, ps in copies_into.items()}
    queue = deque(pts)
    queued = set(queue)

    def include(src: int, dst: int) -> None:
        if dst not in flows.setdefault(src, set()):
            flows[src].add(dst)
            grow(dst, pts.get(src, ()))

    def grow(node: int, objects) -> None:
        target = pts.setdefault(node, set())
        if not target.issuperset(objects):
            target.update(objects)
            if node not in queued:
                queued.add(node)
                queue.append(node)

    while queue:
        node = queue.popleft()
        queued.discard(node)
        objects = set(pts.get(node, ()))
        for p in loads_from.get(node, ()):  # p = *node: pts(o) flows into p
            for o in objects:
                include(o, p)
        for q in stores_into.get(node, ()):  # *node = q: pts(q) flows into o
            for o in objects:
                include(q, o)
        for dst in flows.get(node, ()):
            grow(dst, objects)
    return {(p, o) for p, objects in pts.items() for o in objects}
