"""Eulerian circuits, wirings, rewiring, and vertex splitting.

A circuit is a closed walk stored as its arc-id sequence.  The wiring a
circuit induces at a vertex is the perfect matching "arrived on arc a, left on
arc b"; two circuits are compatible when their wirings are edge-disjoint at
every vertex.  Rewiring replaces the matching at one vertex while keeping all
others, subject to the result still being a single closed walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .alphabet import Word, as_entries
from .errors import (
    DegreeMismatch,
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
        arcs = self.graph.arcs
        seq = self.arc_seq
        for aid, nxt in zip(seq, seq[1:] + seq[:1]):
            if arcs[aid].head != arcs[nxt].tail:
                raise ParameterOutOfRange(f"arc {aid} -> {nxt} is not a valid transition")

    def __len__(self) -> int:
        return len(self.arc_seq)

    def canonical(self) -> "Circuit":
        i = self.arc_seq.index(min(self.arc_seq))
        return Circuit(self.graph, self.arc_seq[i:] + self.arc_seq[:i])

    def vertex_seq(self) -> tuple[int, ...]:
        """Tail vertex of each arc, in walk order."""
        return tuple(self.graph.arcs[a].tail for a in self.arc_seq)


def circuit_to_word(circuit: Circuit) -> Word:
    """Concatenate arc symbols along the walk into a circular word."""
    arcs = circuit.graph.arcs
    return Word(tuple(arcs[a].symbol for a in circuit.arc_seq), circular=True)


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
        return Circuit(graph, mixed_radix_join(windows, [graph.sigma] * k))
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


@dataclass(frozen=True)
class Wiring:
    """Perfect matching of in-arcs to out-arcs at one vertex."""

    vertex: int
    pairs: frozenset  # of (in_arc_id, out_arc_id)


def wiring_of(vertex: int, circuit: Circuit) -> Wiring:
    """The matching induced at `vertex` by consecutive arc pairs."""
    arcs = circuit.graph.arcs
    seq = circuit.arc_seq
    n = len(seq)
    pairs = set()
    for i, aid in enumerate(seq):
        if arcs[aid].head == vertex:
            pairs.add((aid, seq[(i + 1) % n]))
    deg = circuit.graph.in_degree(vertex)
    if len(pairs) != deg:
        raise ParameterOutOfRange(
            f"circuit does not traverse every arc at vertex {vertex} exactly once"
        )
    return Wiring(vertex, frozenset(pairs))


# ----------------------------------------------------------------------
# Eulerian circuits


def find_eulerian_circuit(graph: DirectedMultigraph) -> Circuit:
    """Deterministic Hierholzer traversal, canonical rotation.

    Raises DegreeMismatch at the first unbalanced vertex (lexicographic order)
    and NotConnected when the arc-carrying vertices are not strongly connected:
    once every vertex is balanced, that is exactly when the traversal from the
    first arc-carrying vertex misses an arc.
    """
    if graph.num_arcs == 0:
        raise ParameterOutOfRange("graph has no arcs")
    for v in range(graph.num_vertices):
        if graph.in_degree(v) != graph.out_degree(v):
            raise DegreeMismatch(
                graph.vertex_labels[v], graph.in_degree(v), graph.out_degree(v)
            )
    start = next(v for v in range(graph.num_vertices) if graph.out_arcs[v])
    next_idx = [0] * graph.num_vertices
    vertex_stack = [start]
    arc_stack: list[int] = []
    out: list[int] = []
    while vertex_stack:
        v = vertex_stack[-1]
        if next_idx[v] < len(graph.out_arcs[v]):
            aid = graph.out_arcs[v][next_idx[v]]
            next_idx[v] += 1
            vertex_stack.append(graph.arcs[aid].head)
            arc_stack.append(aid)
        else:
            vertex_stack.pop()
            if arc_stack:
                out.append(arc_stack.pop())
    if len(out) != graph.num_arcs:
        raise NotConnected("arc-carrying vertices are not strongly connected")
    out.reverse()
    i = out.index(min(out))  # the canonical rotation, built and validated once
    return Circuit(graph, tuple(out[i:] + out[:i]))


# ----------------------------------------------------------------------
# rewiring

# The circuit decomposes at v into deg(v) segments (maximal stretches between
# consecutive visits).  Those segments are invariant under rewiring at v, so a
# candidate matching is a permutation of segments and is acceptable exactly
# when that permutation is a single cycle.
#
# No search is needed.  With t <= floor(d/2) - 1 forbidden wirings, each of
# the d segments keeps at least d/2 allowed successors and predecessors, so a
# single cycle through allowed pairs exists (Ghouila-Houri, 1960), and
# `_rewire_search` builds one directly.
#
# A vertex block is rewired on two plain lists kept in step: the arc ids of
# the walk and the head vertex of each arc.  The arrivals at v come from one
# forward pass of C-level `heads.index` calls, a forbidden wiring is read off
# a successor map built once per call, and both lists are re-joined with the
# same slices.  The walk is validated, as a Circuit, once when the block is
# done.


def _rewire_search(ends: Sequence[int], starts: Sequence[int], banned: set):
    """A matching of in-arcs to out-arcs that avoids the `banned` (in, out)
    pairs and whose segment permutation is a single cycle; None if none is
    found.

    Segment j ends with in-arc ends[j] and begins with out-arc starts[j].  The
    result maps each segment to the one that follows it: succ[j] = t wires
    ends[j] to starts[t].

    The start is the single cycle succ[j] = j - s (mod d) for s = 1, the
    reversed segment order, which shares no pair with the old order j + 1
    when d >= 3.  While the first segment a with a banned successor remains,
    take b after a and c after b along the cycle and set succ[a], succ[b],
    succ[c] = succ[b], succ[c], succ[a], choosing the first such (b, c)
    whose three new pairs are allowed.  That still visits every segment once
    and removes the banned pair at a, so at most d rotations run.  If no
    rotation fits, start again from the next s coprime to d.
    """
    d = len(ends)

    def allowed(x: int, y: int) -> bool:  # segment y may follow segment x
        return (ends[x], starts[y]) not in banned

    for s in range(1, d + 1):
        if math.gcd(s, d) != 1:
            continue
        succ = [(j - s) % d for j in range(d)]
        for _ in range(d + 1):  # each rotation removes a banned pair
            a = next((j for j in range(d) if not allowed(j, succ[j])), None)
            if a is None:
                return succ
            cyc = [a]  # the cycle read from a and back: b = cyc[i], c = cyc[j]
            for _ in range(d):
                cyc.append(succ[cyc[-1]])
            move = next(
                (
                    (i, j)
                    for i in range(1, d - 1)
                    if allowed(a, cyc[i + 1])
                    for j in range(i + 1, d)
                    if allowed(cyc[i], cyc[j + 1]) and allowed(cyc[j], cyc[1])
                ),
                None,
            )
            if move is None:
                break
            i, j = move
            succ[a], succ[cyc[i]], succ[cyc[j]] = cyc[i + 1], cyc[j + 1], cyc[1]
    return None


def _splice(seq: list[int], heads: list[int], arrivals: list[int], succ: list[int]):
    """Both lists re-joined with the same slices: the segments laid out along
    succ, starting from segment 0 (the one that wraps round the list end)."""
    new_seq: list[int] = []
    new_heads: list[int] = []
    t = 0
    for _ in arrivals:
        start, stop = arrivals[t - 1] + 1, arrivals[t] + 1
        if start < stop:
            new_seq += seq[start:stop]
            new_heads += heads[start:stop]
        else:
            new_seq += seq[start:]
            new_seq += seq[:stop]
            new_heads += heads[start:]
            new_heads += heads[:stop]
        t = succ[t]
    return new_seq, new_heads


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
    """Fold rewire (or, given `forbidden`, rewire_given) over the vertices in
    the given order.

    The circuit must traverse each in-arc of every listed vertex exactly
    once, and so must each forbidden circuit; otherwise ParameterOutOfRange.
    """
    g = circuit.graph
    seq = list(circuit.arc_seq)
    n = len(seq)
    if len(set(seq)) != n:
        raise ParameterOutOfRange("circuit repeats an arc")
    arcs = g.arcs
    heads = [arcs[a].head for a in seq]
    successors = None if forbidden is None else [_successors(c) for c in forbidden]
    for v in vertices:
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
        # the arc list repeats no arc, so deg positions with head v are all of ins
        arrivals = []
        p = -1
        try:
            for _ in ins:
                p = heads.index(v, p + 1)
                arrivals.append(p)
        except ValueError:
            raise ParameterOutOfRange(f"circuit misses an in-arc of vertex {label!r}") from None
        ends = [seq[p] for p in arrivals]
        outs = [seq[(p + 1) % n] for p in arrivals]  # outs[j] begins segment j + 1
        if successors is None:
            banned = set(zip(ends, outs))
        else:
            try:
                banned = {(a, s[a]) for s in successors for a in ins}
            except KeyError:
                raise ParameterOutOfRange(
                    f"a forbidden circuit misses an in-arc of vertex {label!r}"
                ) from None
        succ = _rewire_search(ends, outs[-1:] + outs[:-1], banned)
        if succ is None:
            raise SearchExhausted(f"no acceptable rewiring at vertex {label!r}")
        seq, heads = _splice(seq, heads, arrivals, succ)
    return Circuit(g, tuple(seq))


# ----------------------------------------------------------------------
# vertex splitting


def split_vertices(
    graph: DirectedMultigraph, wirings: dict[int, Wiring]
) -> DirectedMultigraph:
    """Replace each wired vertex by one degree-1 vertex per wiring pair.

    Arc ids are preserved, so any circuit of the split graph is a valid arc
    sequence of the original; that is what merge_circuit relies on.
    """
    for v, w in wirings.items():
        ins = {i for i, _ in w.pairs}
        outs = {o for _, o in w.pairs}
        if ins != set(graph.in_arcs[v]) or outs != set(graph.out_arcs[v]):
            raise ParameterOutOfRange(
                f"wiring at vertex {graph.vertex_labels[v]!r} is not a perfect matching"
            )
    in_piece: dict[int, tuple] = {}
    out_piece: dict[int, tuple] = {}
    new_labels: list = []
    for v, lab in enumerate(graph.vertex_labels):
        if v not in wirings:
            new_labels.append(lab)
            continue
        for j, (i, o) in enumerate(sorted(wirings[v].pairs)):
            piece = (lab, j)
            new_labels.append(piece)
            in_piece[i] = piece
            out_piece[o] = piece
    arc_specs = []
    for a in graph.arcs:
        tail = out_piece[a.id] if a.tail in wirings else graph.vertex_labels[a.tail]
        head = in_piece[a.id] if a.head in wirings else graph.vertex_labels[a.head]
        arc_specs.append((tail, head, a.symbol))
    base = graph.base if graph.kind == "split" else graph
    return DirectedMultigraph(
        new_labels, arc_specs, kind="split", sigma=graph.sigma, k=graph.k, base=base
    )


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
    the order-(k+1) graph: each traversed arc becomes a visited vertex."""
    g = circuit.graph
    if lifted.k != (g.k or 0) + 1:
        raise ParameterOutOfRange("lifted graph must have order k+1")
    if len(circuit) != g.num_arcs:
        raise ParameterOutOfRange("circuit is not Eulerian")
    seq = circuit.arc_seq
    words = (g.arc_word(a) + (g.arcs[b].symbol,) for a, b in zip(seq, seq[1:] + seq[:1]))
    ham = Circuit(lifted, tuple(map(lifted.arc_id_of_word, words)))
    if len(set(ham.vertex_seq())) != lifted.num_vertices:
        raise ParameterOutOfRange("lift did not visit every vertex once")
    return ham
