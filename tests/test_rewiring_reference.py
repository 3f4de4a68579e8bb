"""The rewiring engine against the one it replaced, kept here verbatim.

The reference read its bans as sets of (in-arc, out-arc) pairs, built per
block vertex from the circuit's own successors or from the forbidden
circuits, and translated every check of the segment-id engine back to arcs.
The engine in `orthoseq.circuits` reads one ban table in segment ids.  On
every input both must return the same arc sequence, or raise the same
exception type with the same message: blocks on degree >= 4 graphs given
their own wiring or forbidden circuits, degree-3 and mixed-degree blocks,
and circuits or forbidden circuits that miss or repeat an arc, or too many
forbidden circuits.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from hypothesis import assume, given, settings, strategies as st

from orthoseq import circuits
from orthoseq.alphabet import LanguageSpec, default_alphabet
from orthoseq.circuits import (
    _SEARCH_NODES,
    Circuit,
    _reverse_threes,
    _successors,
    find_eulerian_circuit,
)
from orthoseq.errors import (
    DegreeMismatch,
    GuardExceeded,
    InsufficientDegree,
    NotConnected,
    ParameterOutOfRange,
    SearchExhausted,
    TooManyForbidden,
)
from orthoseq.graphs import (
    DirectedMultigraph,
    build_de_bruijn_graph,
    build_kautz_graph,
    build_language_graph,
)
from test_properties import balanced_multigraphs, engine_blocks

# ----------------------------------------------------------------------
# the reference, verbatim


def _rewire_search(ends: Sequence[int], starts: Sequence[int], banned: set):
    """A matching of in-arcs to out-arcs that avoids the `banned` (in, out)
    pairs and whose segment permutation is a single cycle; None if there is
    none.

    Segment j ends with in-arc ends[j] and begins with out-arc starts[j].  The
    result maps each segment to the one that follows it: succ[j] = t wires
    ends[j] to starts[t].

    A depth-first search over segment orders from segment 0, on an explicit
    stack.  After segment j it tries j + 1 first (the old order), then j - 1,
    j - 2, ... (the reversed order), so a ban on the old order alone is
    answered by the reversed order without backtracking.  It is complete but
    exponential in the worst case; past a fixed number of nodes it raises
    GuardExceeded.
    """
    d = len(ends)
    options = [
        [y for y in ((j + s) % d for s in (1, *range(d - 1, 1, -1)))
         if (ends[j], starts[y]) not in banned]
        for j in range(d)
    ]
    order = [0]  # the segments placed so far, in cycle order
    placed = [True] + [False] * (d - 1)
    stack = [iter(options[0])]
    nodes = 0
    while stack:
        y = next((y for y in stack[-1] if not placed[y]), None)
        if y is None:  # no segment left to try here: step back
            stack.pop()
            placed[order.pop()] = False
            continue
        nodes += 1
        if nodes > _SEARCH_NODES:
            raise GuardExceeded(f"rewiring search passed {_SEARCH_NODES} nodes at degree {d}")
        if len(order) == d - 1:
            if (ends[y], starts[0]) not in banned:
                succ = dict(zip(order + [y], order[1:] + [y, 0]))
                return [succ[j] for j in range(d)]
            continue
        order.append(y)
        placed[y] = True
        stack.append(iter(options[y]))
    return None



def _augment(j: int, ins, outs, bans: set, new: list, owner: dict) -> bool:
    """Place in-arc j by one breadth-first augmenting path; False if none."""
    parent: dict[int, int] = {}  # out-arc -> the in-arc index it was reached from
    frontier = [j]
    while frontier:
        reached = []
        for i in frontier:
            for o in outs:
                if o in parent or (ins[i], o) in bans:
                    continue
                parent[o] = i
                if o not in owner:  # free: shift every out-arc back along the path
                    while o is not None:
                        i = parent[o]
                        new[i], owner[o], o = o, i, new[i]
                    return True
                reached.append(owner[o])
        frontier = reached
    return False


def _matching(ins, outs, bans: set) -> Optional[list]:
    """new[j], the out-arc to wire after in-arc ins[j], for a perfect
    matching that avoids `bans`; None if there is none.

    ins lists a vertex's in-arcs in arrival order and outs[j] is the old
    successor of ins[j].  In-arc j takes the first allowed, unused one of
    outs[j], outs[j - 2], outs[j - 3], ..., outs[j - d + 1] and last
    outs[j - 1]; augmenting paths then place the in-arcs left over.
    """
    d = len(ins)
    new: list = [None] * d
    owner: dict[int, int] = {}  # out-arc -> index of the in-arc it follows
    for j in range(d):
        for s in (0, *range(2, d), 1):
            o = outs[(j - s) % d]
            if o not in owner and (ins[j], o) not in bans:
                new[j], owner[o] = o, j
                break
    for j in range(d):
        if new[j] is None and not _augment(j, ins, outs, bans, new, owner):
            return None
    return new


def _join_block(g: DirectedMultigraph, block: list[int], seq: Sequence[int], pos: dict,
                banned: list[set]) -> tuple:
    """The block's arc sequence rewired by matching and cycle joining, from
    seq[0]."""
    n = len(seq)
    cuts = sorted(pos[a] for v in block for a in g.in_arcs[v])  # segment i ends at cuts[i]
    count = len(cuts)
    seg_of_end = {seq[p]: i for i, p in enumerate(cuts)}
    first = [seq[(p + 1) % n] for p in cuts[-1:] + cuts[:-1]]  # first[i] begins segment i
    seg_of_first = dict(zip(first, range(count)))
    nxt = [0] * count
    segs = []  # per block vertex, the segments its in-arcs end, in arrival order
    for v, bans in zip(block, banned):
        ins = sorted(g.in_arcs[v], key=pos.__getitem__)
        new = _matching(ins, [seq[(pos[a] + 1) % n] for a in ins], bans)
        if new is None:
            raise SearchExhausted(f"no acceptable rewiring at vertex {g.vertex_labels[v]!r}")
        segs.append([seg_of_end[a] for a in ins])
        for a, o in zip(ins, new):
            nxt[seg_of_end[a]] = seg_of_first[o]

    cyc = [-1] * count  # cycle label of each segment
    cycles = 0
    for i in range(count):
        if cyc[i] < 0:
            j = i
            while cyc[j] < 0:
                cyc[j] = cycles
                j = nxt[j]
            cycles += 1
    root = list(range(cycles))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    def rejoin(v: int, ends: list, bans: set):
        """Put every path between two arrivals at vertex v on one cycle."""
        here = set(ends)
        begins, stops = [], []  # path j runs from segment begins[j] to stops[j]
        for s in ends:
            t = nxt[s]
            begins.append(t)
            while t not in here:
                t = nxt[t]
            stops.append(t)
        succ = _rewire_search([seq[cuts[e]] for e in stops], [first[b] for b in begins], bans)
        if succ is None:
            raise SearchExhausted(f"no acceptable rewiring at vertex {g.vertex_labels[v]!r}")
        for e, j in zip(stops, succ):
            nxt[e] = begins[j]

    while cycles > 1:
        joined = False
        for ends, bans in zip(segs, banned):
            if len({find(cyc[s]) for s in ends}) == 1:
                continue  # every in-arc here is on one cycle already
            for x, sx in enumerate(ends):
                for sy in ends[x + 1 :]:
                    rx, ry = find(cyc[sx]), find(cyc[sy])
                    if rx != ry and (seq[cuts[sx]], first[nxt[sy]]) not in bans and (
                        seq[cuts[sy]], first[nxt[sx]]
                    ) not in bans:
                        nxt[sx], nxt[sy] = nxt[sy], nxt[sx]
                        root[rx] = ry
                        cycles -= 1
                        joined = True
            if cycles == 1:
                break
        if joined:
            continue
        # no 2-swap fits: join every cycle through the first vertex that touches two
        for v, ends, bans in zip(block, segs, banned):
            roots = {find(cyc[s]) for s in ends}
            if len(roots) > 1:
                break
        rejoin(v, ends, bans)
        ry = roots.pop()
        for rx in roots:
            root[rx] = ry
        cycles -= len(roots)

    parts = [seq[: cuts[0] + 1]]
    t = nxt[0]
    for _ in range(count):
        if t == 0:
            break
        parts.append(seq[cuts[t - 1] + 1 : cuts[t] + 1])
        t = nxt[t]
    parts.append(seq[cuts[-1] + 1 :])
    out = tuple(itertools.chain.from_iterable(parts))
    if t != 0 or len(out) != n:  # a closed walk that misses arcs passes validation
        raise ParameterOutOfRange(f"rewired walk closes after {len(out)} of {n} arcs")
    return out



def rewire_vertex_set(
    vertices: Iterable[int],
    circuit: Circuit,
    forbidden: Optional[Sequence[Circuit]] = None,
) -> Circuit:
    """Rewire a block of vertices, keeping the wiring at every other vertex.

    A block is a set of vertices rewired at once, not a fold of one-vertex
    rewires, so a vertex listed twice raises ParameterOutOfRange.  Without
    `forbidden`, each block vertex gets a wiring that shares no pair with its
    old one (degree >= 3).  Given `forbidden`, each avoids every pair the
    forbidden circuits use there (t <= floor(deg/2) - 1 of them, so none at
    degree 3).  The circuit must traverse each in-arc of every block vertex
    exactly once, and so must each forbidden circuit; otherwise
    ParameterOutOfRange.  Degree-3 vertices get the reversed order of their
    segments, in block order; the other block vertices are then rewired
    together by cycle joining.  A block with no degree-3 vertex keeps the
    circuit's first arc first.
    """
    g = circuit.graph
    seq = circuit.arc_seq
    n = len(seq)
    pos = dict(zip(seq, range(n)))
    if len(pos) != n:
        raise ParameterOutOfRange("circuit repeats an arc")
    successors = None if forbidden is None else [_successors(c) for c in forbidden]
    block = list(vertices)
    if len(set(block)) != len(block):
        raise ParameterOutOfRange("a vertex is listed twice in the block")
    threes, rest = [], []
    banned = []  # per vertex of `rest`, the (in, out) pairs its new wiring avoids
    for v in block:
        ins = g.in_arcs[v]
        deg = len(ins)
        label = g.vertex_labels[v]
        if deg != g.out_degree(v):
            raise DegreeMismatch(label, deg, g.out_degree(v))
        if successors is None:
            if deg <= 2:
                raise InsufficientDegree(f"rewiring needs degree >= 3, vertex {label!r} has {deg}")
        elif len(successors) > deg // 2 - 1:
            raise TooManyForbidden(
                f"{len(successors)} forbidden circuits at degree {deg}; "
                f"at most {deg // 2 - 1} supported"
            )
        try:
            old = [seq[(pos[a] + 1) % n] for a in ins]
        except KeyError:
            raise ParameterOutOfRange(f"circuit misses an in-arc of vertex {label!r}") from None
        if deg == 3:
            threes.append(v)
            continue
        rest.append(v)
        if successors is None:
            banned.append(set(zip(ins, old)))
        else:
            try:
                banned.append({(a, s[a]) for s in successors for a in ins})
            except KeyError:
                raise ParameterOutOfRange(
                    f"a forbidden circuit misses an in-arc of vertex {label!r}"
                ) from None
    if threes:  # no other vertex's wiring changes, so `banned` still holds
        seq = _reverse_threes(g, seq, threes)
        pos = dict(zip(seq, range(n)))
    if rest:
        seq = _join_block(g, rest, seq, pos, banned)
    return Circuit(g, seq)


# ----------------------------------------------------------------------
# the comparison


def outcome(rewire, block, circuit, forbidden):
    """The rewired arc sequence, or the type and message of what was raised."""
    try:
        return rewire(block, circuit, forbidden).arc_seq
    except Exception as exc:  # noqa: BLE001 - every failure must match too
        return type(exc).__name__, str(exc)


def assert_same_rewiring(block, circuit, forbidden):
    expected = outcome(rewire_vertex_set, block, circuit, forbidden)
    assert outcome(circuits.rewire_vertex_set, block, circuit, forbidden) == expected


def forbidden_chain(circuit: Circuit, t: int) -> list:
    """The circuit, then up to t - 1 circuits each rewired from the one before
    given all before, at every vertex of high enough degree."""
    g, chain = circuit.graph, [circuit]
    while len(chain) < t:
        fits = [v for v in range(g.num_vertices) if g.in_degree(v) // 2 - 1 >= len(chain)]
        try:
            chain.append(rewire_vertex_set(fits, chain[-1], chain))
        except SearchExhausted:
            break
    return chain


@given(case=engine_blocks())
@settings(max_examples=200, deadline=None)
def test_engine_blocks_rewire_as_the_reference(case):
    assert_same_rewiring(*case)


@st.composite
def degree_three_blocks(draw):
    """Blocks of a degree-3 graph (de Bruijn over 3 symbols, Kautz over 4),
    at any rotation, given their own wiring or no forbidden circuit."""
    k = draw(st.integers(min_value=2, max_value=3))
    graph = build_kautz_graph(4, k) if draw(st.booleans()) else build_de_bruijn_graph(3, k)
    seq = find_eulerian_circuit(graph).arc_seq
    r = draw(st.integers(min_value=0, max_value=len(seq) - 1))
    vertices = st.integers(min_value=0, max_value=graph.num_vertices - 1)
    block = draw(st.lists(vertices, min_size=1, max_size=graph.num_vertices, unique=True))
    return block, Circuit(graph, seq[r:] + seq[:r]), draw(st.sampled_from([None, []]))


@given(case=degree_three_blocks())
@settings(max_examples=100, deadline=None)
def test_degree_three_blocks_rewire_as_the_reference(case):
    assert_same_rewiring(*case)


@st.composite
def mixed_degree_blocks(draw):
    """Blocks of a graph whose vertices differ in degree: a weight-band
    language graph or a random balanced multigraph, given their own wiring, no
    forbidden circuit, or a chain of up to two; mostly only vertices of a
    degree the bans allow, sometimes any."""
    if draw(st.booleans()):
        sigma = draw(st.integers(min_value=4, max_value=6))
        weighted = draw(st.integers(min_value=1, max_value=sigma - 1))
        alphabet = default_alphabet(sigma, range(weighted))
        k = draw(st.integers(min_value=2, max_value=3))
        lo = draw(st.integers(min_value=0, max_value=k - 1))
        hi = draw(st.integers(min_value=lo + 1, max_value=k))
        graph = build_language_graph(LanguageSpec("full", k, lo, hi), alphabet)
    else:
        graph = draw(balanced_multigraphs())
    try:
        seq = find_eulerian_circuit(graph).arc_seq
    except NotConnected:
        assume(False)
    r = draw(st.integers(min_value=0, max_value=len(seq) - 1))
    circuit = Circuit(graph, seq[r:] + seq[:r])
    forbidden = draw(st.sampled_from([None, [], 1, 2]))
    if isinstance(forbidden, int):
        forbidden = forbidden_chain(circuit, forbidden)
    low = 3 if forbidden is None else 2 * len(forbidden) + 2  # the least degree they allow
    pool = [v for v in range(graph.num_vertices) if graph.in_degree(v) >= low]
    if not pool or not draw(st.integers(min_value=0, max_value=3)):  # one in four: any vertex
        pool = range(graph.num_vertices)
    block = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
    return block, circuit, forbidden


@given(case=mixed_degree_blocks())
@settings(max_examples=300, deadline=None)
def test_mixed_degree_blocks_rewire_as_the_reference(case):
    assert_same_rewiring(*case)


@st.composite
def broken_inputs(draw):
    """A circuit or a forbidden circuit that misses arcs (a closed stretch of
    an Eulerian circuit) or repeats them (the stretch walked twice), or one
    forbidden circuit too many, on de Bruijn graphs over 4..6 symbols."""
    graph = build_de_bruijn_graph(draw(st.integers(min_value=4, max_value=6)), 2)
    n, d = graph.num_vertices, graph.in_degree(0)
    whole = find_eulerian_circuit(graph)
    seq, tails = whole.arc_seq, graph.tails
    p = draw(st.integers(min_value=0, max_value=len(seq) - 2))
    later = [q for q in range(p + 1, len(seq)) if tails[seq[q]] == tails[seq[p]]]
    assume(later)
    q = draw(st.sampled_from(later))  # seq[p:q] is a closed walk
    short = Circuit(graph, seq[p:q])
    twice = Circuit(graph, seq[:q] + seq[p:q] + seq[q:])
    block = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n,
                          unique=True))
    kind = draw(st.sampled_from(["short", "twice", "forbidden short", "forbidden twice",
                                 "too many"]))
    if kind in ("short", "twice"):
        circuit = short if kind == "short" else twice
        return block, circuit, draw(st.sampled_from([None, [], [whole]]))
    if kind == "too many":
        return block, whole, [whole] * (d // 2)
    bad = short if kind == "forbidden short" else twice
    return block, whole, draw(st.permutations([bad] + [whole] * (d // 2 - 2)))


@given(case=broken_inputs())
@settings(max_examples=200, deadline=None)
def test_broken_inputs_fail_as_the_reference(case):
    assert_same_rewiring(*case)
