"""Property-based tests.

Invariants checked on randomized inputs:

* window histograms of a circular word always sum to its length and match
  the slicing definition, also for windows longer than the word
* a circular word's canonical form is its least rotation by the slicing
  definition, periodic and one-symbol words included
* de Bruijn membership is invariant under rotation and symbol relabeling
* on a random balanced multigraph the Eulerian traversal raises NotConnected
  exactly when a reference search finds the support not strongly connected,
  and otherwise uses every arc once
* the two compatibility routes agree: wiring disjointness of the circuits
  versus window counting on their words
* rewiring changes exactly the chosen vertex and preserves the circuit
* a block rewired by cycle joining is one closed walk over every arc from
  the input's first arc, avoids every ban at the block and keeps the wiring
  everywhere else
* the matching construction, under the bans rewiring hands it, returns one
  cycle through the segments that avoids every ban, and cycle joining's
  matching is perfect and avoids them too
* a circuit survives a split/merge round trip through any of its wirings
* a traversal with wirings fixed at random vertices walks exactly as the
  split graph's traversal mapped back, including NotConnected when the
  wirings break the walk into several cycles
* the digit bijection between one big alphabet and a pair of factors is
  invertible entrywise, and the stream join equals its symbol-by-symbol loop
* arithmetic arc ids on the full de Bruijn graph equal the word lookup, for
  wrapping words and out-of-range symbols too
* vertex partitions are balanced and exhaustive
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import orthoseq.circuits as circuits
from orthoseq.alphabet import Word
from orthoseq.circuits import (
    Circuit,
    _matching,
    _rewire_search,
    circuit_to_word,
    find_eulerian_circuit,
    merge_circuit,
    rewire,
    rewire_vertex_set,
    split_vertices,
    wiring_of,
    word_to_circuit,
)
from orthoseq.constructions import construct_l_orthogonal_de_bruijn, partition_vertices
from orthoseq.errors import NotConnected, ParameterOutOfRange
from orthoseq.graphs import (
    DirectedMultigraph,
    build_de_bruijn_graph,
    build_kautz_graph,
    build_restricted_graph,
    mixed_radix_join,
)
from orthoseq.verify import (
    are_compatible,
    circular_window_counts,
    is_de_bruijn,
    is_l_orthogonal,
)


def word_of(circuit) -> tuple[int, ...]:
    return circuit_to_word(circuit).entries


words = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40).map(tuple)


@given(word=words, n=st.integers(min_value=1, max_value=8))
@settings(max_examples=80, deadline=None)
def test_window_counts_sum_to_length(word, n):
    counts = circular_window_counts(word, n)
    assert sum(counts.values()) == len(word)
    assert all(len(w) == n for w in counts)


@given(
    word=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12).map(tuple),
    n=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=120, deadline=None)
def test_window_counts_match_the_slicing_definition(word, n):
    windows = [tuple(word[(i + j) % len(word)] for j in range(n)) for i in range(len(word))]
    counts = circular_window_counts(word, n)
    assert counts == Counter(windows)
    assert list(counts) == list(dict.fromkeys(windows))  # in first-seen order, too


def least_rotation_by_slices(entries: tuple) -> tuple:
    """The definition of the least rotation: the least of the n rotations,
    each sliced out of the doubled word, O(n^2)."""
    n = len(entries)
    doubled = entries + entries
    return min(doubled[i : i + n] for i in range(n))


@given(
    word=st.integers(min_value=1, max_value=5)
    .flatmap(lambda sigma: st.lists(st.integers(min_value=0, max_value=sigma - 1),
                                    min_size=1, max_size=300))
    .map(lambda entries: Word(entries, circular=True))
)
@example(word=Word((3,), circular=True))
@example(word=Word((2,) * 7, circular=True))
@example(word=Word((0, 1) * 50, circular=True))
@example(word=Word((1, 1, 0, 2, 0, 0), circular=True))  # least rotation 0,0,1,1,0,2 wraps the end
@example(word=Word((2, 1, 0)))  # a linear word has no rotations
@settings(max_examples=300, deadline=None)
def test_canonical_is_the_least_rotation(word):
    canonical = word.canonical()
    if not word.circular:
        assert canonical is word
    else:
        assert canonical == Word(least_rotation_by_slices(word.entries), circular=True)


@given(
    sigma=st.integers(min_value=2, max_value=4),
    k=st.integers(min_value=1, max_value=3),
    offset=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=30, deadline=None)
def test_de_bruijn_words_rotate_freely(sigma, k, offset):
    word = word_of(find_eulerian_circuit(build_de_bruijn_graph(sigma, k)))
    off = offset % len(word)
    rotated = word[off:] + word[:off]
    assert is_de_bruijn(rotated, sigma=sigma, k=k).holds


@given(sigma=st.integers(min_value=2, max_value=4), data=st.data())
@settings(max_examples=30, deadline=None)
def test_de_bruijn_words_survive_relabeling(sigma, data):
    word = word_of(find_eulerian_circuit(build_de_bruijn_graph(sigma, 2)))
    relabel = data.draw(st.permutations(range(sigma)))
    assert is_de_bruijn(tuple(relabel[s] for s in word), sigma=sigma, k=2).holds


def strongly_connected_on_support(graph) -> bool:
    """Reference: a forward and a backward search from one arc-carrying
    vertex both reach every arc-carrying vertex."""
    support = set(graph.tails) | set(graph.heads)
    start = min(support)
    arcs = list(zip(graph.tails, graph.heads))
    for pairs in (arcs, [(y, x) for x, y in arcs]):
        seen, frontier = {start}, [start]
        while frontier:
            v = frontier.pop()
            for x, y in pairs:
                if x == v and y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if seen != support:
            return False
    return True


@st.composite
def balanced_multigraphs(draw):
    """A union of random closed walks on at most 6 vertices, arcs in random
    order; vertices no walk visits stay in the graph without arcs."""
    n = draw(st.integers(min_value=1, max_value=6))
    walks = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=8),
        min_size=1, max_size=4,
    ))
    specs = [(w[i], w[(i + 1) % len(w)]) for w in walks for i in range(len(w))]
    specs = draw(st.permutations(specs))
    return DirectedMultigraph(range(n), [(t, h, i) for i, (t, h) in enumerate(specs)], "test")


@given(graph=balanced_multigraphs())
@settings(max_examples=300, deadline=None)
def test_eulerian_circuit_exactly_when_connected(graph):
    if not strongly_connected_on_support(graph):
        with pytest.raises(NotConnected):
            find_eulerian_circuit(graph)
        return
    circuit = find_eulerian_circuit(graph)  # a Circuit checks every transition
    assert sorted(circuit.arc_seq) == list(range(graph.num_arcs))


@given(
    ell=st.integers(min_value=1, max_value=2),
    picks=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_compatibility_routes_agree(ell, picks):
    # route one counts shared windows on words, route two compares wirings;
    # multisets of members (duplicates allowed) probe the failing side too
    family = construct_l_orthogonal_de_bruijn(3, 2, 2)
    circuits = [family.circuits[i] for i in picks]
    via_words = is_l_orthogonal([word_of(c) for c in circuits], k=2, ell=ell)
    via_wirings = are_compatible(circuits, ell=ell)
    assert via_words.holds == via_wirings.holds


@given(sigma=st.integers(min_value=3, max_value=4), vertex=st.integers(min_value=0))
@settings(max_examples=30, deadline=None)
def test_rewire_postconditions(sigma, vertex):
    graph = build_de_bruijn_graph(sigma, 2)
    v = vertex % graph.num_vertices
    before = find_eulerian_circuit(graph)
    after = rewire(v, before)
    assert wiring_of(v, after).items().isdisjoint(wiring_of(v, before).items())
    for u in range(graph.num_vertices):
        if u != v:
            assert wiring_of(u, after) == wiring_of(u, before)
    assert is_de_bruijn(word_of(after), sigma=sigma, k=2).holds


@given(vertex=st.integers(min_value=0), rounds=st.integers(min_value=1, max_value=2))
@settings(max_examples=20, deadline=None)
def test_repeated_rewiring_stays_compatible(vertex, rounds):
    graph = build_de_bruijn_graph(4, 2)
    base = find_eulerian_circuit(graph)
    current = base
    for _ in range(rounds):
        current = rewire_vertex_set(range(graph.num_vertices), current, [base])
        assert are_compatible([base, current]).holds
    v = vertex % graph.num_vertices
    assert wiring_of(v, current).items().isdisjoint(wiring_of(v, base).items())


@st.composite
def engine_blocks(draw):
    """A block of >= 3 vertices on a degree >= 4 graph (de Bruijn sigma 4..9
    or Kautz sigma 5..10, k = 2), the circuit to rewire, and the forbidden
    circuits: None to ban the circuit's own wiring, or t <= d/2 - 1 pairwise
    compatible circuits made by earlier rewires, the circuit among them."""
    if draw(st.booleans()):
        graph = build_kautz_graph(draw(st.integers(min_value=5, max_value=10)), 2)
    else:
        graph = build_de_bruijn_graph(draw(st.integers(min_value=4, max_value=9)), 2)
    n, d = graph.num_vertices, graph.in_degree(0)
    block = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=3, max_size=n, unique=True))
    seq = find_eulerian_circuit(graph).arc_seq
    r = draw(st.integers(min_value=0, max_value=len(seq) - 1))
    chain = [Circuit(graph, seq[r:] + seq[:r])]
    if draw(st.booleans()):
        return block, chain[0], None
    t = draw(st.integers(min_value=1, max_value=d // 2 - 1))
    while len(chain) < t:
        chain.append(rewire_vertex_set(range(n), chain[-1], chain))
    return block, chain[draw(st.integers(min_value=0, max_value=t - 1))], chain


@given(case=engine_blocks())
@settings(max_examples=300, deadline=None)
def test_cycle_joining_rewires_the_block_and_nothing_else(case):
    block, before, forbidden = case
    graph = before.graph
    engine, answers = circuits._join_block, []

    def join(*args):
        answers.append(engine(*args))
        return answers[-1]

    with mock.patch.object(circuits, "_join_block", join):
        after = rewire_vertex_set(block, before, forbidden)
    assert len(answers) == 1  # one joining pass, no fold
    assert after.arc_seq == answers[0]
    assert sorted(after.arc_seq) == list(range(graph.num_arcs))  # one walk, every arc
    assert after.arc_seq[0] == before.arc_seq[0]
    for v in range(graph.num_vertices):
        if v not in block:
            assert wiring_of(v, after) == wiring_of(v, before)
            continue
        bans = [before] if forbidden is None else forbidden
        banned = set().union(*(wiring_of(v, c).items() for c in bans))
        assert wiring_of(v, after).items().isdisjoint(banned)


@given(sigma=st.integers(min_value=2, max_value=4), vertex=st.integers(min_value=0))
@settings(max_examples=30, deadline=None)
def test_split_merge_round_trip(sigma, vertex):
    graph = build_de_bruijn_graph(sigma, 2)
    v = vertex % graph.num_vertices
    circuit = find_eulerian_circuit(graph)
    target = wiring_of(v, circuit)
    merged = merge_circuit(
        find_eulerian_circuit(split_vertices(graph, target)), graph
    )
    assert wiring_of(v, merged) == target
    assert is_de_bruijn(word_of(merged), sigma=sigma, k=2).holds


def traversal_outcome(walk):
    """The arc sequence a traversal returns, or NotConnected if it raises that."""
    try:
        return walk().arc_seq
    except NotConnected:
        return NotConnected


@given(graph=balanced_multigraphs(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_wired_traversal_walks_the_split_graph(graph, data):
    """A wired traversal is the split graph's traversal mapped back, arc for
    arc, and both raise NotConnected when the wiring leaves more than one
    cycle."""
    carrying = [v for v in range(graph.num_vertices) if graph.in_arcs[v]]
    chosen = set(data.draw(st.lists(st.sampled_from(carrying), max_size=len(carrying))))
    if 0 in carrying and data.draw(st.booleans()):
        chosen.add(0)  # the first vertex: the walk starts on one of its pieces
    wiring = {}
    for v in sorted(chosen):
        wiring.update(zip(graph.in_arcs[v], data.draw(st.permutations(graph.out_arcs[v]))))
    expected = traversal_outcome(
        lambda: merge_circuit(find_eulerian_circuit(split_vertices(graph, wiring)), graph)
    )
    assert traversal_outcome(lambda: find_eulerian_circuit(graph, wiring)) == expected
    if expected is not NotConnected:
        circuit = find_eulerian_circuit(graph, wiring)
        assert all(wiring_of(v, circuit).items() <= wiring.items() for v in chosen)


@given(
    entries=st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=30),
    sigma2=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=80, deadline=None)
def test_digit_bijection_round_trip(entries, sigma2):
    hi = tuple(e // sigma2 for e in entries)
    lo = tuple(e % sigma2 for e in entries)
    assert mixed_radix_join([hi, lo], [12 // sigma2 + 1, sigma2]) == tuple(entries)


def join_by_loop(streams, radices):
    """Position t of the lcm-length stream, one symbol at a time."""
    lengths = [len(s) for s in streams]
    out = []
    for t in range(math.lcm(*lengths)):
        val = 0
        for s, n, r in zip(streams, lengths, radices):
            val = val * r + s[t % n]
        out.append(val)
    return tuple(out)


@given(
    radices=st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3),
    lengths=st.sampled_from([(3,), (4, 4), (2, 3), (3, 4, 5), (5, 5, 5), (4, 9)]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_mixed_radix_join_matches_the_symbol_loop(radices, lengths, data):
    streams = [
        tuple(data.draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n)))
        for r, n in zip(radices, lengths)
    ]
    assert mixed_radix_join(streams, radices) == join_by_loop(streams, radices)


@given(
    sigma=st.integers(min_value=2, max_value=4),
    k=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_arithmetic_arc_ids_match_the_word_lookup(sigma, k, data):
    # words shorter than k - 1 wrap more than once; k = 1 has no wrap at all
    fast = build_de_bruijn_graph(sigma, k)
    lookup = build_restricted_graph(
        itertools.product(range(sigma), repeat=k), kind="de_bruijn", sigma=sigma
    )
    word = data.draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=12))
    bad = data.draw(st.one_of(st.none(), st.sampled_from([-1, sigma, sigma + 3])))
    if bad is not None:
        word.insert(data.draw(st.integers(0, len(word))), bad)
    if bad is None:
        circuit = word_to_circuit(word, fast)
        assert circuit.arc_seq == word_to_circuit(word, lookup).arc_seq
        assert word_of(circuit) == tuple(word)
    else:
        messages = []
        for graph in (fast, lookup):
            with pytest.raises(ParameterOutOfRange) as raised:
                word_to_circuit(word, graph)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
    # one window on its own: an arc word gets the lookup's id, anything else KeyError
    window = data.draw(st.lists(st.sampled_from([*range(sigma), -1, sigma, "0", None]),
                                min_size=k - 1, max_size=k + 1))
    try:
        expected = lookup.arc_id_of_word(window)
    except KeyError:
        with pytest.raises(KeyError):
            fast.arc_id_of_word(window)
    else:
        assert fast.arc_id_of_word(window) == expected
    assert not hasattr(fast, "_word_to_arc")


@given(sigma=st.integers(min_value=2, max_value=4), ell=st.integers(min_value=1, max_value=9))
@settings(max_examples=40, deadline=None)
def test_partition_blocks_are_balanced(sigma, ell):
    graph = build_de_bruijn_graph(sigma, 3)
    if ell > graph.num_vertices:
        return
    blocks = partition_vertices(graph, ell)
    assert len(blocks) == ell
    flat = [v for block in blocks for v in block]
    assert sorted(flat) == list(range(graph.num_vertices))
    sizes = {len(block) for block in blocks}
    assert max(sizes) - min(sizes) <= 1


@given(rotation=st.integers(min_value=0, max_value=8))
@settings(max_examples=9, deadline=None)
def test_word_circuit_round_trip_at_any_phase(rotation):
    graph = build_de_bruijn_graph(3, 2)
    word = word_of(find_eulerian_circuit(graph))
    rotated = word[rotation:] + word[:rotation]
    assert word_of(word_to_circuit(rotated, graph)) == rotated


# ----------------------------------------------------------------------
# the matching construction under the bans rewiring hands it


def disjoint_matchings(rnd, d: int, t: int) -> set:
    """t pairwise-disjoint perfect matchings of range(d) onto range(d), each
    found by augmenting paths among the pairs the earlier ones left free.
    After r matchings those form a (d - r)-regular bipartite graph, so the
    next matching exists (König)."""
    used: set = set()
    for _ in range(t):
        match: dict = {}  # right -> left

        def augment(i: int, seen: set) -> bool:
            for j in rnd.sample(range(d), d):
                if (i, j) not in used and j not in seen:
                    seen.add(j)
                    if j not in match or augment(match[j], seen):
                        match[j] = i
                        return True
            return False

        for i in rnd.sample(range(d), d):
            assert augment(i, set())
        used |= {(i, j) for j, i in match.items()}
    return used


def has_single_cycle(ends, starts, banned) -> bool:
    """Brute force: some order of the segments, read as a cycle, uses no
    banned pair."""
    d = len(ends)
    for rest in itertools.permutations(range(1, d)):
        order = (0,) + rest
        if all((ends[x], starts[y]) not in banned for x, y in zip(order, order[1:] + order[:1])):
            return True
    return False


@st.composite
def segment_layouts(draw):
    """Segment j ends with in-arc ends[j] and begins with out-arc starts[j];
    the two id sets may overlap, as loops make them do.  The bans are either
    the old wiring (segment j + 1 after j), as `rewire` gives them, or
    t <= d/2 - 1 pairwise-disjoint perfect matchings, as `rewire_given` does."""
    d = draw(st.integers(min_value=3, max_value=12))
    ids = st.integers(min_value=0, max_value=2 * d)
    ends = draw(st.lists(ids, min_size=d, max_size=d, unique=True))
    starts = draw(st.lists(ids, min_size=d, max_size=d, unique=True))
    if draw(st.booleans()):
        return ends, starts, {(ends[j], starts[(j + 1) % d]) for j in range(d)}
    t = draw(st.integers(min_value=0, max_value=d // 2 - 1))
    pairs = disjoint_matchings(draw(st.randoms(use_true_random=False)), d, t)
    assert len(pairs) == t * d
    return ends, starts, {(ends[i], starts[j]) for i, j in pairs}


# two disjoint perfect matchings banned at d = 6 (t = 2, three allowed
# successors each): eight single cycles exist, and repairing the reversed
# order by 3-rotations, restarted from every coprime stride, finds none
SIX = [(0, 3), (0, 5), (1, 2), (1, 4), (2, 0), (2, 1), (3, 2), (3, 4), (4, 3), (4, 5), (5, 0), (5, 1)]


@given(layout=segment_layouts())
@example(layout=(list(range(6)), list(range(10, 16)), {(i, 10 + j) for i, j in SIX}))
@settings(max_examples=300, deadline=None)
def test_matching_construction_gives_one_cycle_avoiding_the_bans(layout):
    ends, starts, banned = layout
    d = len(ends)
    succ = _rewire_search(ends, starts, banned)
    assert succ is not None
    assert sorted(succ) == list(range(d))
    seen, j = {0}, succ[0]
    while j != 0:
        seen.add(j)
        j = succ[j]
    assert len(seen) == d  # one d-cycle
    assert not any((ends[j], starts[succ[j]]) in banned for j in range(d))
    if d <= 7:
        assert has_single_cycle(ends, starts, banned)
    # cycle joining's matching, read with starts[j] as the old successor of
    # ends[j]: a perfect matching that avoids the bans, cycles or not
    new = _matching(ends, starts, banned)
    assert sorted(new) == sorted(starts)
    assert not any((a, o) in banned for a, o in zip(ends, new))
