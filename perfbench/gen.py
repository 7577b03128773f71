"""Seeded input generators for the benchmark workloads.

Everything here is plain Python and imports nothing from ``repro``: the
inputs depend only on the seed and on this file, so a change to
``repro.workloads`` cannot change what the benchmark measures.  Each
generator is designed so that the work it induces varies little from
seed to seed (the benchmark's spread across seeds must stay inside its
bounds) and so that no output it is checked on can be empty.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

# -- pointsto ---------------------------------------------------------------

ANDERSEN = """\
Pts(p, a) :- Addr(p, a).
Pts(p, a) :- Copy(p, q), Pts(q, a).
Pts(p, a) :- Load(p, q), Pts(q, v), Pts(v, a).
Pts(v, a) :- Store(p, q), Pts(p, v), Pts(q, a).
"""

#: Objects are numbered from here so they never collide with variables.
OBJECT_BASE = 1000

#: Statement mix of the pointer program (the rest are stores).
STATEMENT_SHARES = (("Addr", 0.35), ("Copy", 0.30), ("Load", 0.20))


def _balanced(rng: random.Random, count: int, universe: int) -> list[int]:
    """*count* draws from ``range(universe)`` with every value used evenly.

    Independent uniform draws give some variables many more statements
    than others, and the join work of Andersen's analysis follows those
    degrees; evening them out keeps the work nearly constant per seed.
    """
    values = [i % universe for i in range(count)]
    rng.shuffle(values)
    return values


#: Seed of the fixed structure that the pointsto and maintain inputs of
#: every seed relabel.  Even degree-balanced random structures leave the
#: work (and the time) of those two workloads 10-15% apart from seed to
#: seed, so the run's seed only renames nodes and reorders.
STRUCTURE_SEED = 0


def _permutation(rng: random.Random, count: int) -> list[int]:
    values = list(range(count))
    rng.shuffle(values)
    return values


def pointer_program(seed: int, statements: int, variables: int) -> list[tuple[str, int, int]]:
    """A straight-line pointer program as ``(kind, lhs, rhs)`` statements.

    ``Addr(p, o)`` is ``p = &o``, ``Copy(p, q)`` is ``p = q``,
    ``Load(p, q)`` is ``p = *q`` and ``Store(p, q)`` is ``*p = q``.  The
    statements are those of one fixed program with the variables and the
    objects renamed and the order shuffled by *seed*, so every seed's
    program takes the same work to analyse.
    """
    structure = random.Random(STRUCTURE_SEED)
    counts = {kind: round(statements * share) for kind, share in STATEMENT_SHARES}
    counts["Store"] = statements - sum(counts.values())
    rng = random.Random(seed)
    var, obj = _permutation(rng, variables), _permutation(rng, variables)
    program = []
    for kind, count in counts.items():
        lhs_side = _balanced(structure, count, variables)
        rhs_side = _balanced(structure, count, variables)
        for lhs, rhs in zip(lhs_side, rhs_side):
            program.append((kind, var[lhs], OBJECT_BASE + obj[rhs] if kind == "Addr" else var[rhs]))
    rng.shuffle(program)
    return program


def facts_text(facts) -> str:
    """Render ``(predicate, *ints)`` tuples as a Datalog fact file."""
    return "".join(f"{pred}({', '.join(map(str, args))}).\n" for pred, *args in facts)


# -- reach-unreached ----------------------------------------------------------

REACH_UNREACHED = """\
Reach(x) :- S(x).
Reach(y) :- Reach(x), A(x, y).
Unreached(x) :- Node(x), not Reach(x).
"""


@dataclass(frozen=True)
class Graph:
    nodes: int
    edges: frozenset[tuple[int, int]]
    sources: tuple[int, ...]


def island_graph(seed: int, nodes: int, edges: int, sources: int = 3) -> Graph:
    """A random digraph with a planted island that no source can reach.

    The first three quarters of the nodes form the *mainland*, which holds
    the sources; the rest form the *island*.  Edges run inside the
    mainland, inside the island, and from the island to the mainland, but
    never into the island from outside, so ``Unreached`` holds at least the
    whole island and ``Reach`` at least the sources: neither can be empty
    whatever the seed.  Out- and in-degrees are balanced inside each part,
    which keeps the reachable set (and so the work) nearly the same across
    seeds.
    """
    rng = random.Random(seed)
    mainland = nodes * 3 // 4
    island = nodes - mainland
    main_edges = edges * 3 // 4
    island_edges = (edges - main_edges) // 2
    bridge_edges = edges - main_edges - island_edges
    pairs: set[tuple[int, int]] = set()
    for count, tails, heads in (
        (main_edges, (0, mainland), (0, mainland)),
        (island_edges, (mainland, island), (mainland, island)),
        (bridge_edges, (mainland, island), (0, mainland)),
    ):
        srcs = [tails[0] + v for v in _balanced(rng, count, tails[1])]
        dsts = [heads[0] + v for v in _balanced(rng, count, heads[1])]
        pairs.update((s, d) for s, d in zip(srcs, dsts) if s != d)
    return Graph(nodes, frozenset(pairs), tuple(rng.sample(range(mainland), sources)))


def reach_facts(graph: Graph) -> list[tuple]:
    facts: list[tuple] = [("Node", v) for v in range(graph.nodes)]
    facts += [("S", s) for s in graph.sources]
    facts += [("A", s, d) for s, d in sorted(graph.edges)]
    return facts


# -- maintain ---------------------------------------------------------------

REACHABILITY = """\
R(x) :- S(x).
R(y) :- R(x), A(x, y).
"""

BATCH = 5


@dataclass(frozen=True)
class Round:
    """One update: insert ``inserts``, then delete ``deletes``."""

    inserts: tuple[tuple[int, int], ...]
    deletes: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Shape:
    """A maintenance graph's parts: where the update generator may act.

    Nodes ``0 .. mainland - 1`` form the mainland: a cycle through all of
    them (the *backbone*, never updated) plus random *chords*, so the source
    0 reaches the whole mainland however the chords change.  The rest form
    ``len(heads)`` detached chains, each entered only at its head.
    """

    graph: Graph
    mainland: int
    chords: frozenset[tuple[int, int]]
    heads: tuple[int, ...]


def maintenance_graph(seed: int, mainland: int, chords: int, chains: int, chain: int) -> Shape:
    """The initial graph of the maintain workload; node 0 is the source.

    Each chain's tail has one edge back into the mainland, so attaching a
    chain adds ``chain`` reached nodes and detaching it removes them.
    """
    rng = random.Random(seed)
    backbone = {(v, (v + 1) % mainland) for v in range(mainland)}
    chord_set: set[tuple[int, int]] = set()
    for s, d in zip(_balanced(rng, chords, mainland), _balanced(rng, chords, mainland)):
        if s != d and (s, d) not in backbone:
            chord_set.add((s, d))
    edges = backbone | chord_set
    heads = []
    for i in range(chains):
        nodes = range(mainland + i * chain, mainland + (i + 1) * chain)
        edges.update(zip(nodes, nodes[1:]))
        edges.add((nodes[-1], rng.randrange(mainland)))
        heads.append(nodes[0])
    graph = Graph(mainland + chains * chain, frozenset(edges), (0,))
    return Shape(graph, mainland, frozenset(chord_set), tuple(heads))


def update_rounds(seed: int, shape: Shape, rounds: int, reach) -> list[Round]:
    """Seeded insert/delete rounds that each change the reached set by a chain.

    Round ``r`` inserts an edge from a random mainland node to the head of
    chain ``r mod chains`` plus ``BATCH - 1`` new random chords, then
    deletes that attaching edge plus ``BATCH - 1`` random existing chords.
    The reached set grows by one chain and shrinks back to the mainland in
    every round, and each deleted chord makes DRed over-delete everything
    its head reaches, so every round does the same amount of work whatever
    the seed.  *reach* is the reference solver ``(graph) -> set``; a batch
    that leaves the reached set unchanged raises ``ValueError``.
    """
    rng = random.Random(seed * 7919 + 1)
    graph = shape.graph
    edges = set(graph.edges)
    chords = set(shape.chords)

    def reached_now() -> set[int]:
        return reach(Graph(graph.nodes, frozenset(edges), graph.sources))

    reached = reached_now()
    out = []
    for r in range(rounds):
        attach = (rng.randrange(shape.mainland), shape.heads[r % len(shape.heads)])
        inserts = [attach]
        while len(inserts) < BATCH:
            s, d = rng.randrange(shape.mainland), rng.randrange(shape.mainland)
            if s != d and (s, d) not in edges and (s, d) not in inserts:
                inserts.append((s, d))
        edges.update(inserts)
        chords.update(inserts[1:])
        grown = reached_now()
        if grown == reached:
            raise ValueError("update generator: insert batch leaves the view unchanged")
        deletes = [attach] + rng.sample(sorted(chords), BATCH - 1)
        edges.difference_update(deletes)
        chords.difference_update(deletes)
        reached = reached_now()
        if reached == grown:
            raise ValueError("update generator: delete batch leaves the view unchanged")
        out.append(Round(tuple(inserts), tuple(deletes)))
    return out


def maintenance_workload(
    seed: int, mainland: int, chords: int, chains: int, chain: int, rounds: int, reach, variants: int
) -> list[tuple[Graph, list[Round]]]:
    """The maintain workload's initial graphs and update rounds for *seed*.

    *variants* renamings of the graph and rounds of :data:`STRUCTURE_SEED`
    (see :func:`maintenance_graph` and :func:`update_rounds`), each with
    every node renamed by a permutation drawn from *seed*: the same
    derivations for every seed, on other node numbers.  The time DRed
    takes still moves with the numbering (a single renaming's rounds
    took up to 30% longer than another's at identical over-deletion and
    rederivation counts), so a run cycles through many renamings and its
    median averages over them.
    """
    shape = maintenance_graph(STRUCTURE_SEED, mainland, chords, chains, chain)
    updates = update_rounds(STRUCTURE_SEED, shape, rounds, reach)
    rng = random.Random(seed)
    out = []
    for _ in range(variants):
        name = _permutation(rng, shape.graph.nodes)

        def renamed_edges(edges):
            return tuple((name[s], name[d]) for s, d in edges)

        graph = Graph(
            shape.graph.nodes,
            frozenset(renamed_edges(shape.graph.edges)),
            tuple(name[s] for s in shape.graph.sources),
        )
        out.append((graph, [Round(renamed_edges(u.inserts), renamed_edges(u.deletes)) for u in updates]))
    return out


# -- optimize-corpus ----------------------------------------------------------


@dataclass(frozen=True)
class CorpusProgram:
    """A program with the size its minimal form has by construction."""

    family: str
    text: str
    rules: int
    body_atoms: int


TC_INIT = "G(x, z) :- A(x, z)."


def _rule(head: str, body: list[str]) -> str:
    return f"{head} :- {', '.join(body)}."


def wide_program(chain: int, planted: int) -> CorpusProgram:
    """A chain rule ``G(x, v0), A(v0, v1), .., A(vk, z)`` plus weakened copies.

    Planted atom ``i`` copies chain atom ``3i + 1`` (cyclically) with
    argument ``i mod 2`` replaced by a fresh variable, so it folds onto its
    original and is redundant under uniform equivalence; the chain itself
    is a simple path joined to the head and is minimal.  Which atoms are
    copied and where they go depend only on the shape, so every program of
    a shape costs the same to minimize.
    """
    names = [f"v{i}" for i in range(chain)] + ["z"]
    core = [f"G(x, {names[0]})"] + [f"A({names[i]}, {names[i + 1]})" for i in range(chain)]
    body = list(core)
    for i in range(planted):
        template = core[(3 * i + 1) % len(core)]
        pred, args = template[0], template[2:-1].split(", ")
        args[i % 2] = f"f{i}"
        body.insert((5 * i + 2) % (len(body) + 1), f"{pred}({', '.join(args)})")
    text = TC_INIT + "\n" + _rule("G(x, z)", body) + "\n"
    return CorpusProgram("wide", text, 2, 1 + len(core))


def tc_redundant_atoms(k: int) -> CorpusProgram:
    """Nonlinear TC whose recursive rule carries ``k`` atoms ``G(x, s_i)``."""
    body = ["G(x, y)", "G(y, z)"] + [f"G(x, s{i})" for i in range(k)]
    return CorpusProgram("tc-atoms", f"{TC_INIT}\n{_rule('G(x, z)', body)}\n", 2, 3)


def tc_redundant_rules(k: int) -> CorpusProgram:
    """Nonlinear TC plus ``k`` path rules of lengths ``2..k+1`` over ``A``."""
    lines = [TC_INIT, _rule("G(x, z)", ["G(x, y)", "G(y, z)"])]
    for length in range(2, k + 2):
        names = ["x"] + [f"y{i}" for i in range(1, length)] + ["z"]
        lines.append(_rule("G(x, z)", [f"A({names[i]}, {names[i + 1]})" for i in range(length)]))
    return CorpusProgram("tc-rules", "\n".join(lines) + "\n", 2, 3)


def guarded_tc(k: int) -> CorpusProgram:
    """Nonlinear TC whose recursive rule carries ``k`` guards ``A(y, w_i)``.

    Guards beyond the first fold into each other under uniform
    equivalence; the last one goes only under plain equivalence, through
    the tgd ``G(x, z) -> A(x, w)`` the program preserves (Sections X-XI).
    """
    body = ["G(x, y)", "G(y, z)"] + [f"A(y, w{i})" for i in range(k)]
    return CorpusProgram("guarded", f"{TC_INIT}\n{_rule('G(x, z)', body)}\n", 2, 3)


#: Programs per family.  The split is uneven so that the median latency
#: falls inside one family rather than between two.
CORPUS_MIX = (("wide", 65), ("tc-atoms", 20), ("tc-rules", 20), ("guarded", 15))

#: Wide-rule shapes ``(chain, planted)``, cycled so that every seed gets
#: the same multiset of sizes.
WIDE_SHAPES = tuple((chain, planted) for chain in range(4, 8) for planted in range(3, 8))

FAMILY_MAKERS = {
    "wide": lambda i: wide_program(*WIDE_SHAPES[i % len(WIDE_SHAPES)]),
    "tc-atoms": lambda i: tc_redundant_atoms(1 + i % 4),
    "tc-rules": lambda i: tc_redundant_rules(1 + i % 4),
    "guarded": lambda i: guarded_tc(1 + i % 4),
}

VARIABLE = re.compile(r"\b([a-z]\w*)")


def renamed(program: CorpusProgram, prefix: str) -> CorpusProgram:
    """*program* with *prefix* put before every variable name.

    Predicates start upper-case and variables lower-case, and one prefix
    keeps the variables' relative order, so the renamed program costs the
    same to optimize as the original.
    """
    text = VARIABLE.sub(lambda m: prefix + m.group(1), program.text)
    return CorpusProgram(program.family, text, program.rules, program.body_atoms)


def corpus(seed: int) -> list[CorpusProgram]:
    """The optimize-corpus programs: a fixed multiset of shapes.

    The seed picks each program's variable names and the corpus order;
    the work each program takes does not depend on it.
    """
    rng = random.Random(seed)
    programs = [
        renamed(FAMILY_MAKERS[family](i), "".join(rng.choices("abcdeghkmnpqrstu", k=2)))
        for family, count in CORPUS_MIX
        for i in range(count)
    ]
    rng.shuffle(programs)
    return programs
