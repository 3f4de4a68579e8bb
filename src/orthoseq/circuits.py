"""Eulerian circuits, wirings, rewiring, and vertex splitting.

A circuit is a closed walk stored as its arc-id sequence.  The wiring a
circuit induces at a vertex is the perfect matching "arrived on arc a, left on
arc b"; a wiring is kept as a dict from in-arc to out-arc, over one vertex or
many.  Two circuits are compatible when their wirings are edge-disjoint at
every vertex.  Rewiring replaces the matching at one vertex while keeping all
others, subject to the result still being a single closed walk.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .alphabet import Word, as_entries
from .errors import (
    DegreeMismatch,
    GuardExceeded,
    InsufficientDegree,
    NotConnected,
    ParameterOutOfRange,
    SearchExhausted,
    TooManyForbidden,
)
from .graphs import DirectedMultigraph, mixed_radix_join


@dataclass(frozen=True)
class Circuit:
    """A closed walk given by its cyclic arc-id sequence.

    The stored rotation is significant (stream pairing in the tensor
    composition is phase-sensitive); use :meth:`canonical` when comparing.
    """

    graph: DirectedMultigraph
    arc_seq: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "arc_seq", tuple(self.arc_seq))
        if not self.arc_seq:
            raise ParameterOutOfRange("empty circuit")
        seq, heads, tails = self.arc_seq, self.graph.heads, self.graph.tails
        rotated = seq[1:] + seq[:1]
        # every transition at C speed; the first bad one is looked for only on a mismatch
        if operator.itemgetter(*seq)(heads) != operator.itemgetter(*rotated)(tails):
            aid, nxt = next(p for p in zip(seq, rotated) if heads[p[0]] != tails[p[1]])
            raise ParameterOutOfRange(f"arc {aid} -> {nxt} is not a valid transition")

    def __len__(self) -> int:
        return len(self.arc_seq)

    def canonical(self) -> "Circuit":
        i = self.arc_seq.index(min(self.arc_seq))
        return Circuit(self.graph, self.arc_seq[i:] + self.arc_seq[:i])

    def vertex_seq(self) -> tuple[int, ...]:
        """Tail vertex of each arc, in walk order."""
        return tuple(map(self.graph.tails.__getitem__, self.arc_seq))


def circuit_to_word(circuit: Circuit) -> Word:
    """Concatenate arc symbols along the walk into a circular word."""
    return Word(tuple(map(circuit.graph.symbols.__getitem__, circuit.arc_seq)), circular=True)


def word_to_circuit(word, graph: DirectedMultigraph) -> Circuit:
    """Interpret a circular word as a closed walk; inverse of circuit_to_word.

    The arc at position t is the k-window ending at t, so the returned
    circuit's word equals the input in the same rotation.
    """
    entries = as_entries(word)
    k = graph.k
    if k is None:
        raise ParameterOutOfRange("graph does not carry a word order")
    if not entries:
        raise ParameterOutOfRange("empty word")
    n = len(entries)
    # the k-1 symbols before position 0; short periodic words wrap, so a
    # length-1 word on an order-2 graph is a loop
    ext = (entries * k)[(n - 1) * k + 1 :] + entries
    if graph.full_de_bruijn and {int}.issuperset(map(type, ext)) and (
        0 <= min(ext) and max(ext) < graph.sigma
    ):  # arc id = the window's base-sigma value
        windows = [ext[j : j + n] for j in range(k)]
        # consecutive windows of one circular word overlap in k - 1 symbols, so
        # every transition is valid and the arc-by-arc check is skipped
        circuit = object.__new__(Circuit)
        object.__setattr__(circuit, "graph", graph)
        object.__setattr__(circuit, "arc_seq", mixed_radix_join(windows, [graph.sigma] * k))
        return circuit
    seq = []
    for t in range(n):
        window = ext[t : t + k]
        try:
            seq.append(graph.arc_id_of_word(window))
        except KeyError:
            raise ParameterOutOfRange(f"window {window!r} is not an arc of the graph") from None
    return Circuit(graph, tuple(seq))


# ----------------------------------------------------------------------
# wirings


def wiring_of(vertex: int, circuit: Circuit) -> dict[int, int]:
    """The matching induced at `vertex`: each in-arc -> the arc the circuit
    takes next."""
    heads, seq = circuit.graph.heads, circuit.arc_seq
    pairs = [(a, b) for a, b in zip(seq, seq[1:] + seq[:1]) if heads[a] == vertex]
    wiring = dict(pairs)
    if len(pairs) != circuit.graph.in_degree(vertex) or len(wiring) != len(pairs):
        raise ParameterOutOfRange(
            f"circuit does not traverse every arc at vertex {vertex} exactly once"
        )
    return wiring


def _wired(graph: DirectedMultigraph, wiring: dict[int, int]) -> list[bool]:
    """Per vertex, whether `wiring` maps its in-arcs; ParameterOutOfRange
    unless it maps them one to one onto the vertex's out-arcs at each such
    vertex, and maps no other arc."""
    wired = [bool(ins) and ins[0] in wiring for ins in graph.in_arcs]
    for v in itertools.compress(range(graph.num_vertices), wired):
        ins, outs = graph.in_arcs[v], graph.out_arcs[v]
        if len(ins) != len(outs) or set(map(wiring.get, ins)) != set(outs):
            raise ParameterOutOfRange(
                f"wiring at vertex {graph.vertex_labels[v]!r} is not a perfect matching"
            )
    if sum(map(len, itertools.compress(graph.in_arcs, wired))) != len(wiring):
        raise ParameterOutOfRange("wiring maps an arc that is no in-arc of a wired vertex")
    return wired


# ----------------------------------------------------------------------
# Eulerian circuits


def find_eulerian_circuit(graph: DirectedMultigraph,
                          wiring: Optional[dict[int, int]] = None) -> Circuit:
    """Deterministic Hierholzer traversal, canonical rotation.

    `wiring` fixes the transitions at the vertices whose in-arcs it maps to
    out-arcs, a perfect matching at each (else ParameterOutOfRange).  Arriving
    there on arc a enters a piece of its own, the degree-1 vertex
    `split_vertices` makes, so the walk is the split graph's, arc for arc.  Raises
    DegreeMismatch at the first unbalanced vertex (lexicographic order)
    outside the wiring and NotConnected when the traversal from the first
    arc-carrying vertex misses an arc: with every vertex balanced, exactly
    when the arc-carrying vertices are not strongly connected."""
    if graph.num_arcs == 0:
        raise ParameterOutOfRange("graph has no arcs")
    n, wiring = graph.num_vertices, wiring or {}
    wired = _wired(graph, wiring)
    unbalanced = map(operator.ne, map(len, graph.in_arcs), map(len, graph.out_arcs))
    for v in itertools.compress(range(n), unbalanced):
        if not wired[v]:
            raise DegreeMismatch(graph.vertex_labels[v], graph.in_degree(v), graph.out_degree(v))
    left = list(map(iter, graph.out_arcs))  # the out-arcs still to take at each vertex
    enter = list(map(left.__getitem__, graph.heads))  # those where each arc leads
    for a, o in wiring.items():  # the piece entered on a wired in-arc has one out-arc
        enter[a] = iter((o,))
    start = next(itertools.compress(range(n), graph.out_arcs))
    # the split graph's first vertex: the piece of the least in-arc, if wired
    first = enter[min(graph.in_arcs[start])] if wired[start] else left[start]
    here, arc_stack, out = first, [], []  # `here` is the end of the walk on the stack
    while True:
        aid = next(here, None)
        if aid is not None:
            arc_stack.append(aid)
            here = enter[aid]
        elif arc_stack:
            out.append(arc_stack.pop())
            here = enter[arc_stack[-1]] if arc_stack else first
        else:
            break
    if len(out) != graph.num_arcs:
        raise NotConnected("arc-carrying vertices are not strongly connected")
    out.reverse()
    i = out.index(min(out))  # the canonical rotation, built and validated once
    return Circuit(graph, tuple(out[i:] + out[:i]))


# ----------------------------------------------------------------------
# rewiring

# A rewiring keeps every stretch of the walk between two arrivals at block
# vertices (a segment) and changes only which segment follows which.  Each
# block vertex is rewired by the one rule for its degree.
#
# At d = 3 the reversed order is the only single cycle of three segments
# other than the old order, and the floor(d/2) - 1 budget allows no
# forbidden circuit, so nothing is searched: the degree-3 vertices, in block
# order, each get the reversed order of the three segments between their
# arrivals, one 4-slice relayout of the arc list (`_reverse_threes`, O(|A|)
# per vertex in C-level list work).
#
# The other block vertices are then rewired at once on a successor array
# `nxt` over the segments between their arrivals: segment i ends with a
# block in-arc, and the out-arc wired after that in-arc begins segment
# nxt[i] (Kotzig's transition moves, 1968; cycle joining as in Fredricksen,
# 1982); in the old walk it is i + 1.  The block avoids the wirings of the
# forbidden circuits, or else of the circuit itself, read once into a ban
# table: bad[i] holds the segments that may not follow segment i, those that
# begin with a successor of its last in-arc in one of those circuits.
#
# 1. At each block vertex, `_matching` picks a perfect matching of the
#    segments ending there to their old successors that avoids the bans: a
#    greedy pick over the old successors, then augmenting paths for the
#    segments left over.  With the own wiring banned the pick is the old
#    successors shifted back by two arrivals, which at a lone vertex is the
#    reversed segment order, one cycle.  Given t <= floor(d/2) - 1 forbidden
#    circuits, the bans are t disjoint matchings, so the allowed pairs are
#    (d - t)-regular and a perfect matching exists (Koenig).
# 2. The segments then fall into cycles, labelled in one pass.
# 3. Two segments ending at one block vertex on different cycles swap
#    successors when neither new successor is banned, which joins their two
#    cycles into one; a union-find tracks the joins.  Passes over the block
#    repeat while more than one cycle is left.  When a pass joins nothing,
#    the walk between two arrivals at the first block vertex whose segments
#    lie on different cycles is taken as one path each, and `_rewire_search`
#    orders those d paths into a single cycle, joining every cycle through
#    that vertex.  Some block vertex always has segments on two cycles while
#    more than one is left: the old walk goes from a segment on one to a
#    segment on another through a block vertex.  Each path keeps at least
#    d/2 allowed successors and predecessors other than itself (the bans are
#    t <= floor(d/2) - 1 disjoint matchings, or the own wiring), so a single
#    cycle through allowed pairs exists (Ghouila-Houri, 1960) and the search
#    finds one.
# 4. The segments are laid out once along nxt by C-level slices, from the one
#    that holds the walk's first arc, and the walk is validated once as a
#    Circuit.  A closed walk that misses arcs passes that validation, so a
#    walk shorter than the input is raised.
#
# A block of |B| vertices with S arrivals in all costs O(|A|) in C-level
# dict and slice work, O(S log S) to sort the arrivals and O(|B| d^2) ban
# checks per joining pass.

_SEARCH_NODES = 10**6  # node guard of `_rewire_search`


def _rewire_search(ends: Sequence[int], starts: Sequence[int], bad: Sequence):
    """An order of d paths into a single cycle in which no path begins with
    a segment that `bad` bans after the last segment of the path before it;
    None if there is none.

    Path j ends with segment ends[j] and begins with segment starts[j].  The
    result maps each path to the one that follows it: succ[j] = t puts
    starts[t] after ends[j].

    A depth-first search over path orders from path 0, on an explicit stack.
    After path j it tries j + 1 first (the old order), then j - 1, j - 2, ...
    (the reversed order), so a ban on the old order alone is answered by the
    reversed order without backtracking.  It is complete but exponential in
    the worst case; past a fixed number of nodes it raises GuardExceeded.
    """
    d = len(ends)
    options = [
        [y for y in ((j + s) % d for s in (1, *range(d - 1, 1, -1)))
         if starts[y] not in bad[ends[j]]]
        for j in range(d)
    ]
    order = [0]  # the paths placed so far, in cycle order
    placed = [True] + [False] * (d - 1)
    stack = [iter(options[0])]
    nodes = 0
    while stack:
        y = next((y for y in stack[-1] if not placed[y]), None)
        if y is None:  # no path left to try here: step back
            stack.pop()
            placed[order.pop()] = False
            continue
        nodes += 1
        if nodes > _SEARCH_NODES:
            raise GuardExceeded(f"rewiring search passed {_SEARCH_NODES} nodes at degree {d}")
        if len(order) == d - 1:
            if starts[0] not in bad[ends[y]]:
                succ = dict(zip(order + [y], order[1:] + [y, 0]))
                return [succ[j] for j in range(d)]
            continue
        order.append(y)
        placed[y] = True
        stack.append(iter(options[y]))
    return None


def _reverse_threes(g: DirectedMultigraph, seq: Sequence[int], vertices: list[int]) -> list:
    """The arc list with each degree-3 vertex, in turn, rewired to the
    reversed order of the three segments between its arrivals."""
    arcs = list(seq)
    for v in vertices:
        p, q, r = sorted(map(arcs.index, g.in_arcs[v]))
        out = arcs[r + 1 :]
        out += arcs[: p + 1]
        out += arcs[q + 1 : r + 1]
        out += arcs[p + 1 : q + 1]
        arcs = out
    return arcs


def _augment(j: int, ins, outs, bad, new: list, owner: dict) -> bool:
    """Place segment ins[j] by one breadth-first augmenting path; False if none."""
    parent: dict[int, int] = {}  # successor -> the index in ins it was reached from
    frontier = [j]
    while frontier:
        reached = []
        for i in frontier:
            for o in outs:
                if o in parent or o in bad[ins[i]]:
                    continue
                parent[o] = i
                if o not in owner:  # free: shift every successor back along the path
                    while o is not None:
                        i = parent[o]
                        new[i], owner[o], o = o, i, new[i]
                    return True
                reached.append(owner[o])
        frontier = reached
    return False


def _matching(ins, outs, bad) -> Optional[list]:
    """new[j], the segment to put after segment ins[j], for a perfect
    matching onto `outs` that `bad` allows; None if there is none.

    ins lists the segments that end at one vertex, in arrival order, and
    outs[j] is the old successor of ins[j].  Segment j takes the first
    allowed, unused one of outs[j], outs[j - 2], outs[j - 3], ...,
    outs[j - d + 1] and last outs[j - 1]; augmenting paths then place the
    segments left over.
    """
    d = len(ins)
    new: list = [None] * d
    owner: dict[int, int] = {}  # successor -> index in ins of the segment it follows
    for j in range(d):
        for s in (0, *range(2, d), 1):
            o = outs[(j - s) % d]
            if o not in owner and o not in bad[ins[j]]:
                new[j], owner[o] = o, j
                break
    for j in range(d):
        if new[j] is None and not _augment(j, ins, outs, bad, new, owner):
            return None
    return new


def _join_block(g: DirectedMultigraph, block: list[int], seq: Sequence[int], pos: dict,
                avoid: list[dict]) -> tuple:
    """The block's arc sequence rewired by matching and cycle joining, from
    seq[0], avoiding the wirings of the circuits whose successor maps are
    `avoid`."""
    n = len(seq)
    cuts = sorted(pos[a] for v in block for a in g.in_arcs[v])  # segment i ends at cuts[i]
    count = len(cuts)
    last = list(map(seq.__getitem__, cuts))  # last[i] ends segment i
    first = [seq[(p + 1) % n] for p in cuts[-1:] + cuts[:-1]]  # first[i] begins segment i
    seg_of_first = dict(zip(first, range(count)))
    # a successor that begins no segment maps to None, which bans nothing
    bad = list(zip(*(map(seg_of_first.get, map(s.__getitem__, last)) for s in avoid)))
    bad = bad or [()] * count  # no circuit to avoid
    segs: dict = {v: [] for v in block}  # per block vertex, its segments in arrival order
    for i, v in enumerate(map(g.heads.__getitem__, last)):
        segs[v].append(i)
    nxt = [0] * count
    for v, ends in segs.items():
        new = _matching(ends, [(i + 1) % count for i in ends], bad)
        if new is None:
            raise SearchExhausted(f"no acceptable rewiring at vertex {g.vertex_labels[v]!r}")
        for i, j in zip(ends, new):
            nxt[i] = j

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

    def rejoin(v: int, ends: list):
        """Put every path between two arrivals at vertex v on one cycle."""
        here = set(ends)
        begins, stops = [], []  # path j runs from segment begins[j] to stops[j]
        for s in ends:
            t = nxt[s]
            begins.append(t)
            while t not in here:
                t = nxt[t]
            stops.append(t)
        succ = _rewire_search(stops, begins, bad)
        if succ is None:
            raise SearchExhausted(f"no acceptable rewiring at vertex {g.vertex_labels[v]!r}")
        for e, j in zip(stops, succ):
            nxt[e] = begins[j]

    while cycles > 1:
        joined = False
        for ends in segs.values():
            if len({find(cyc[s]) for s in ends}) == 1:
                continue  # every segment here is on one cycle already
            for x, sx in enumerate(ends):
                for sy in ends[x + 1 :]:
                    rx, ry = find(cyc[sx]), find(cyc[sy])
                    if rx != ry and nxt[sy] not in bad[sx] and nxt[sx] not in bad[sy]:
                        nxt[sx], nxt[sy] = nxt[sy], nxt[sx]
                        root[rx] = ry
                        cycles -= 1
                        joined = True
            if cycles == 1:
                break
        if joined:
            continue
        # no 2-swap fits: join every cycle through the first vertex that touches two
        for v, ends in segs.items():
            roots = {find(cyc[s]) for s in ends}
            if len(roots) > 1:
                break
        rejoin(v, ends)
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


def _successors(circuit: Circuit) -> dict[int, int]:
    """Arc -> next arc along the circuit: its wiring at every vertex."""
    seq = circuit.arc_seq
    succ = dict(zip(seq, seq[1:] + seq[:1]))
    if len(succ) != len(seq):
        raise ParameterOutOfRange("forbidden circuit repeats an arc")
    return succ


def rewire(vertex: int, circuit: Circuit) -> Circuit:
    """New circuit whose wiring at `vertex` shares no pair with the old one.

    Requires degree >= 3 at the vertex (counting a loop once); at degree 3
    the only answer is the reversed segment order.
    """
    return rewire_vertex_set((vertex,), circuit)


def rewire_given(vertex: int, circuit: Circuit, forbidden: Sequence[Circuit]) -> Circuit:
    """Rewire so the new wiring avoids every pair used by the forbidden
    circuits at this vertex.  Supports t <= floor(deg/2) - 1 forbidden
    circuits; the forbidden list is expected to be pairwise compatible."""
    return rewire_vertex_set((vertex,), circuit, forbidden)


def rewire_vertex_set(
    vertices: Iterable[int],
    circuit: Circuit,
    forbidden: Optional[Sequence[Circuit]] = None,
) -> Circuit:
    """Rewire a block of vertices, keeping the wiring at every other vertex.

    A block is a set of vertices rewired at once, not a fold of one-vertex
    rewires, so a vertex listed twice raises ParameterOutOfRange.  Each block
    vertex gets a wiring that shares no pair with the wirings of the
    `forbidden` circuits there (t <= floor(deg/2) - 1 of them, so none at
    degree 3).  Without `forbidden`, the circuit is rewired given itself:
    each block vertex gets a wiring that shares no pair with its old one
    (degree >= 3).  The circuit must traverse each in-arc of every block
    vertex exactly once, and so must each forbidden circuit; otherwise
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
    avoid = [_successors(c) for c in ([circuit] if forbidden is None else forbidden)]
    block = list(vertices)
    if len(set(block)) != len(block):
        raise ParameterOutOfRange("a vertex is listed twice in the block")
    threes, rest = [], []
    for v in block:
        ins = g.in_arcs[v]
        deg = len(ins)
        label = g.vertex_labels[v]
        if deg != g.out_degree(v):
            raise DegreeMismatch(label, deg, g.out_degree(v))
        if forbidden is None:
            if deg <= 2:
                raise InsufficientDegree(f"rewiring needs degree >= 3, vertex {label!r} has {deg}")
        elif len(avoid) > deg // 2 - 1:
            raise TooManyForbidden(
                f"{len(avoid)} forbidden circuits at degree {deg}; "
                f"at most {deg // 2 - 1} supported"
            )
        if not all(map(pos.__contains__, ins)):
            raise ParameterOutOfRange(f"circuit misses an in-arc of vertex {label!r}")
        # the circuit itself misses none, so this names only a forbidden one
        if not all(all(map(s.__contains__, ins)) for s in avoid):
            raise ParameterOutOfRange(f"a forbidden circuit misses an in-arc of vertex {label!r}")
        (threes if deg == 3 else rest).append(v)
    if threes:  # no other vertex's wiring changes, so `avoid` still holds
        seq = _reverse_threes(g, seq, threes)
        pos = dict(zip(seq, range(n)))
    if rest:
        seq = _join_block(g, rest, seq, pos, avoid)
    return Circuit(g, seq)


# ----------------------------------------------------------------------
# vertex splitting


def split_vertices(graph: DirectedMultigraph, wiring: dict[int, int]) -> DirectedMultigraph:
    """Replace each vertex whose in-arcs `wiring` maps to out-arcs, as
    `find_eulerian_circuit` takes it, by one degree-1 vertex per in-arc.

    Arc ids are preserved, so any circuit of the split graph is a valid arc
    sequence of the original; that is what merge_circuit relies on.
    """
    wired = _wired(graph, wiring)
    new_labels: list = []
    new_id: list = []  # of each vertex, or of its first piece
    for v, lab in enumerate(graph.vertex_labels):
        new_id.append(len(new_labels))
        new_labels += [(lab, j) for j in range(len(graph.in_arcs[v]))] if wired[v] else [lab]
    tails = list(map(new_id.__getitem__, graph.tails))
    heads = list(map(new_id.__getitem__, graph.heads))
    for v in itertools.compress(range(graph.num_vertices), wired):
        for piece, i in enumerate(graph.in_arcs[v], new_id[v]):  # piece j: the j-th in-arc
            heads[i] = tails[wiring[i]] = piece
    base = graph.base if graph.kind == "split" else graph
    split = DirectedMultigraph(new_labels, (), kind="split", sigma=graph.sigma, k=graph.k,
                               base=base)
    split._set_arcs(tails, heads, graph.symbols)
    return split


def merge_circuit(circuit: Circuit, original: DirectedMultigraph) -> Circuit:
    """Reinterpret a circuit of a split graph on the graph it came from."""
    g = circuit.graph
    if g.kind != "split" or g.base is not original:
        raise ParameterOutOfRange("circuit does not belong to a split of this graph")
    if g.num_arcs != original.num_arcs:
        raise ParameterOutOfRange("arc sets differ")
    return Circuit(original, circuit.arc_seq)


# ----------------------------------------------------------------------
# order lift


def hamiltonian_from_eulerian(circuit: Circuit, lifted: DirectedMultigraph) -> Circuit:
    """Map an Eulerian circuit of the order-k graph to a Hamiltonian cycle of
    the order-(k+1) graph: traversed arc a becomes visited vertex a, whose
    out-arcs must append the symbols of the out-arcs at a's head in id order
    (de Bruijn, Kautz).  Arcs a, b in turn lift to out-arc j of vertex a, for
    b the j-th out-arc at its tail; checking the symbols, the circuit and the
    visits makes every lifted word right on word graphs.  A failure names the
    first lifted word missing; other vertex ids are refused, not searched."""
    g = circuit.graph
    if lifted.k != (g.k or 0) + 1:
        raise ParameterOutOfRange("lifted graph must have order k+1")
    if len(circuit) != g.num_arcs:
        raise ParameterOutOfRange("circuit is not Eulerian")
    seq = circuit.arc_seq
    nxt = seq[1:] + seq[:1]
    try:
        outs = map(g.out_arcs.__getitem__, map(g.tails.__getitem__, nxt))
        ids = tuple(map(tuple.__getitem__, map(lifted.out_arcs.__getitem__, seq),
                        map(tuple.index, outs, nxt)))
        ham = Circuit(lifted, ids)
        if list(map(lifted.symbols.__getitem__, ids)) != list(map(g.symbols.__getitem__, nxt)):
            raise ParameterOutOfRange("lifted arcs do not carry the next arcs' symbols")
        if len(set(ham.vertex_seq())) != lifted.num_vertices:
            raise ParameterOutOfRange("lift did not visit every vertex once")
    except (IndexError, ParameterOutOfRange) as exc:
        have = set(lifted.arc_words())  # word tuples, for the message only
        words = (g.arc_word(a) + (g.symbols[b],) for a, b in zip(seq, nxt))
        word = next((w for w in words if w not in have), None)
        raise ParameterOutOfRange(
            f"lifted word {word!r} is not an arc of the lifted graph" if word is not None
            else f"lifted graph's vertex ids are not the circuit graph's arc ids: {exc}"
        ) from None
    return ham
