"""Eulerian circuit machinery tests.

Covers the deterministic circuit finder, the word/circuit correspondence,
wirings, rewiring (plain and with forbidden wirings),
vertex splitting with merge, and the Hamiltonian lift between consecutive
graph orders.  Expected words are frozen outputs of the deterministic
algorithms, cross-checked by the oracles.
"""

from __future__ import annotations

import pytest

from orthoseq.alphabet import LanguageSpec, default_alphabet, dna_alphabet, expand_language
from orthoseq.circuits import (
    Circuit,
    circuit_to_word,
    find_eulerian_circuit,
    hamiltonian_from_eulerian,
    merge_circuit,
    rewire,
    rewire_given,
    rewire_vertex_set,
    split_vertices,
    word_to_circuit,
    wiring_of,
)
from orthoseq.errors import (
    DegreeMismatch,
    InsufficientDegree,
    NotConnected,
    ParameterOutOfRange,
    TooManyForbidden,
)
from orthoseq.graphs import build_de_bruijn_graph, build_kautz_graph, build_restricted_graph
from orthoseq.verify import are_compatible, is_de_bruijn, is_l_orthogonal

DNA = dna_alphabet()


def digits(text: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in text)


def word_of(circuit: Circuit) -> tuple[int, ...]:
    return circuit_to_word(circuit).entries


# ----------------------------------------------------------------------
# the deterministic circuit finder


def test_eulerian_circuit_is_deterministic():
    g = build_de_bruijn_graph(3, 2)
    first = find_eulerian_circuit(g)
    second = find_eulerian_circuit(g)
    assert first.arc_seq == second.arc_seq
    assert word_of(first) == digits("010211220")


@pytest.mark.parametrize("sigma,k", [(2, 3), (3, 2), (4, 2), (3, 3)])
def test_eulerian_circuit_yields_de_bruijn_word(sigma, k):
    circuit = find_eulerian_circuit(build_de_bruijn_graph(sigma, k))
    assert len(circuit) == sigma**k
    assert is_de_bruijn(word_of(circuit), sigma=sigma, k=k).holds


def test_unbalanced_graph_reports_first_offender():
    from orthoseq.alphabet import LanguageSpec, expand_language

    language = expand_language(
        LanguageSpec("kautz", 3, min_weight=1, max_weight=1), DNA
    )
    g = build_restricted_graph(language)
    with pytest.raises(DegreeMismatch) as info:
        find_eulerian_circuit(g)
    assert info.value.vertex_label == DNA.parse("AC")
    assert (info.value.in_degree, info.value.out_degree) == (1, 2)


def test_disconnected_balanced_graph_is_rejected():
    # two isolated loops: balanced everywhere, but no single circuit
    g = build_restricted_graph([(0, 0), (1, 1)], sigma=2)
    with pytest.raises(NotConnected):
        find_eulerian_circuit(g)


# ----------------------------------------------------------------------
# words <-> circuits


def test_word_circuit_round_trip_preserves_phase():
    g = build_de_bruijn_graph(3, 2)
    word = digits("012002211")
    circuit = word_to_circuit(word, g)
    assert word_of(circuit) == word
    assert len(circuit) == g.num_arcs


def test_word_to_circuit_rejects_foreign_window():
    with pytest.raises(ParameterOutOfRange):
        word_to_circuit((0, 0, 1), build_kautz_graph(3, 2))


def test_word_to_circuit_rejects_an_unhashable_symbol():
    # both graphs look the window's prefix up among their vertex labels
    for graph in (build_kautz_graph(3, 2), build_de_bruijn_graph(3, 2)):
        with pytest.raises(KeyError):
            graph.arc_id_of_word(([0], 1))
        with pytest.raises(ParameterOutOfRange):
            word_to_circuit([[0], 1, 2], graph)


def test_circuit_canonical_ignores_rotation():
    g = build_de_bruijn_graph(3, 2)
    a = word_to_circuit(digits("012002211"), g)
    b = word_to_circuit(digits("002211012"), g)
    assert a.arc_seq != b.arc_seq
    assert a.canonical() == b.canonical()


# ----------------------------------------------------------------------
# wirings


def test_wiring_pairs_of_known_circuit():
    g = build_de_bruijn_graph(3, 2)
    circuit = word_to_circuit(digits("012002211"), g)
    wiring = wiring_of(g.vertex_index[(0,)], circuit)

    def arc(text: str) -> int:
        return g.arc_id_of_word(digits(text))

    assert wiring.items() == frozenset(
        {(arc("10"), arc("01")), (arc("20"), arc("00")), (arc("00"), arc("02"))}
    )


# ----------------------------------------------------------------------
# rewiring


def assert_rewired_at(vertex: int, before: Circuit, after: Circuit):
    # the rewired circuit must change every pair at `vertex` and nothing else
    assert wiring_of(vertex, after).items().isdisjoint(wiring_of(vertex, before).items())
    for u in range(before.graph.num_vertices):
        if u != vertex:
            assert wiring_of(u, after) == wiring_of(u, before)


def test_rewire_changes_only_the_chosen_vertex():
    g = build_de_bruijn_graph(3, 2)
    circuit = find_eulerian_circuit(g)
    for v in range(g.num_vertices):
        rewired = rewire(v, circuit)
        assert_rewired_at(v, circuit, rewired)
        assert is_de_bruijn(word_of(rewired), sigma=3, k=2).holds


@pytest.mark.parametrize("graph", [build_de_bruijn_graph(3, 2), build_kautz_graph(4, 2)])
def test_degree_three_rewire_reverses_the_segment_order(graph):
    # of the two single cycles on three segments, only the reversed order
    # shares no pair with the old one, so it is the unique answer
    circuit = find_eulerian_circuit(graph)
    for v in range(graph.num_vertices):
        seq = circuit.arc_seq
        cut = max(p for p, a in enumerate(seq) if graph.heads[a] == v) + 1
        seq = seq[cut:] + seq[:cut]  # the walk now ends on its last arrival at v
        i, j, _ = [p + 1 for p, a in enumerate(seq) if graph.heads[a] == v]
        s0, s1, s2 = seq[:i], seq[i:j], seq[j:]
        expected = Circuit(graph, s0 + s2 + s1).canonical()
        assert rewire(v, circuit).canonical() == expected


def test_rewire_needs_degree_three():
    circuit = find_eulerian_circuit(build_de_bruijn_graph(2, 2))
    with pytest.raises(InsufficientDegree):
        rewire(0, circuit)


def test_rewire_given_respects_forbidden_budget():
    circuit = find_eulerian_circuit(build_de_bruijn_graph(3, 2))
    # degree 3 supports no forbidden circuit at all: t <= deg//2 - 1 = 0
    with pytest.raises(TooManyForbidden):
        rewire_given(0, circuit, [circuit])


def test_rewire_given_avoids_the_forbidden_wiring():
    g = build_de_bruijn_graph(4, 2)
    base = find_eulerian_circuit(g)
    out = rewire_given(0, base, [base])
    assert wiring_of(0, out).items().isdisjoint(wiring_of(0, base).items())
    assert is_de_bruijn(word_of(out), sigma=4, k=2).holds


def test_rewire_vertex_set_builds_a_compatible_circuit():
    g = build_de_bruijn_graph(4, 2)
    base = find_eulerian_circuit(g)
    other = rewire_vertex_set(range(g.num_vertices), base, [base])
    assert are_compatible([base, other]).holds
    # dual route: compatibility is exactly 1-orthogonality of the words
    assert is_l_orthogonal([word_of(base), word_of(other)], k=2, ell=1).holds


def test_incompatible_pair_names_its_first_shared_wiring():
    # the witness is (vertex label, in-arc, out-arc, uses) of the smallest
    # over-used pair by (vertex, in-arc, out-arc); both values predate the
    # counting of wirings by arc pairs
    g = build_de_bruijn_graph(3, 3)
    base = find_eulerian_circuit(g)
    other = rewire_vertex_set([0, 1, 2, 3], base)
    assert are_compatible([base, other]).witness == ((1, 1), 4, 12, 2)
    g = build_de_bruijn_graph(3, 2)
    base = find_eulerian_circuit(g)
    other = rewire(1, base)
    assert are_compatible([base, other, base], ell=2).witness == ((0,), 0, 1, 3)


# rewiring walks one arc list through a vertex block and builds the Circuit
# once at the end; these pin the checks that remain on that path


def rewiring_calls(circuit: Circuit, forbidden: list):
    """Every public entry into rewiring at vertex 0, given `forbidden`."""
    return [
        lambda: rewire(0, circuit),
        lambda: rewire_given(0, circuit, forbidden),
        lambda: rewire_vertex_set([0], circuit),
        lambda: rewire_vertex_set([0], circuit, forbidden),
    ]


def test_rewiring_rejects_a_circuit_that_misses_an_in_arc():
    g = build_de_bruijn_graph(4, 2)
    base = find_eulerian_circuit(g)
    short = word_to_circuit((0, 1), g)  # a closed walk through one in-arc of vertex 0
    for call in rewiring_calls(short, [base]):
        with pytest.raises(ParameterOutOfRange, match="misses an in-arc"):
            call()


def test_rewiring_rejects_a_forbidden_circuit_that_misses_an_in_arc():
    g = build_de_bruijn_graph(4, 2)
    base = find_eulerian_circuit(g)
    short = word_to_circuit((0, 1), g)
    for v in (0, 2):  # visited once by `short`, and never
        for call in (lambda: rewire_given(v, base, [short]),
                     lambda: rewire_vertex_set(range(v, 4), base, [short])):
            with pytest.raises(ParameterOutOfRange, match="forbidden circuit misses"):
                call()


def test_rewiring_rejects_a_walk_that_repeats_an_arc():
    g = build_de_bruijn_graph(4, 2)
    base = find_eulerian_circuit(g)
    twice = Circuit(g, base.arc_seq * 2)  # a valid closed walk, every arc twice
    for call in rewiring_calls(twice, [base]):
        with pytest.raises(ParameterOutOfRange, match="circuit repeats an arc"):
            call()
    with pytest.raises(ParameterOutOfRange, match="forbidden circuit repeats an arc"):
        rewire_given(0, base, [twice])


def test_a_bad_splice_is_caught_when_the_fold_returns(monkeypatch):
    import orthoseq.circuits as circuits

    relayout = circuits._reverse_threes
    calls = []

    def corrupt_the_first(g, seq, vertices):
        out = relayout(g, seq, vertices[:1])
        out[0], out[1] = out[1], out[0]  # corrupt the first vertex's relayout only
        calls.append(len(vertices))
        return relayout(g, out, vertices[1:])

    monkeypatch.setattr(circuits, "_reverse_threes", corrupt_the_first)
    g = build_de_bruijn_graph(3, 2)  # degree 3: every vertex takes the reversed order
    base = find_eulerian_circuit(g)
    with pytest.raises(ParameterOutOfRange, match="not a valid transition"):
        rewire_vertex_set(range(g.num_vertices), base)
    assert calls == [g.num_vertices]  # the fold ran on; the exit check caught it


def test_a_mixed_degree_block_reverses_its_degree_three_vertices_and_joins_the_rest():
    language = expand_language(LanguageSpec("full", 3, 1, 2), default_alphabet(5, (0, 1)))
    g = build_restricted_graph(language, sigma=5)
    degree = [g.in_degree(v) for v in range(g.num_vertices)]
    assert set(degree) == {2, 3, 5}
    block = [v for v in range(g.num_vertices) if degree[v] >= 3]
    threes = [v for v in block if degree[v] == 3]
    assert (len(block), len(threes)) == (16, 4)
    before = find_eulerian_circuit(g)
    after = rewire_vertex_set(block, before)
    assert sorted(after.arc_seq) == list(range(g.num_arcs))  # one walk, every arc
    for v in range(g.num_vertices):
        old, new = wiring_of(v, before).items(), wiring_of(v, after).items()
        assert old.isdisjoint(new) if v in block else old == new
    # in block order, each degree-3 vertex takes the reversed order of its three
    # segments in the walk with the earlier ones rewired: each in-arc is wired to
    # the old successor of the arrival after it
    succ = dict(zip(before.arc_seq, before.arc_seq[1:] + before.arc_seq[:1]))
    for v in threes:
        walk = [before.arc_seq[0]]
        while len(walk) < g.num_arcs:
            walk.append(succ[walk[-1]])
        ins = [a for a in walk if g.heads[a] == v]
        reversed_order = {(a, succ[b]) for a, b in zip(ins, ins[1:] + ins[:1])}
        assert wiring_of(v, after).items() == reversed_order
        succ.update(reversed_order)


@pytest.mark.parametrize("sigma, block", [(3, [0, 0]), (4, [1, 1]), (4, [0, 2, 3, 2])])
def test_rewiring_rejects_a_vertex_listed_twice(sigma, block):
    # rewired twice in a fold, a degree-3 vertex would get its old wiring back
    base = find_eulerian_circuit(build_de_bruijn_graph(sigma, 2))
    with pytest.raises(ParameterOutOfRange, match="listed twice"):
        rewire_vertex_set(block, base)
    if sigma > 3:
        with pytest.raises(ParameterOutOfRange, match="listed twice"):
            rewire_vertex_set(block, base, [base])


@pytest.mark.parametrize("given", [False, True])
def test_an_empty_block_keeps_the_circuit(given):
    base = find_eulerian_circuit(build_de_bruijn_graph(4, 2))
    assert rewire_vertex_set([], base, [base] if given else None) == base


# ----------------------------------------------------------------------
# splitting and merging


def test_full_split_pins_the_whole_circuit():
    g = build_de_bruijn_graph(3, 2)
    circuit = find_eulerian_circuit(g)
    wiring = {}
    for v in range(g.num_vertices):
        wiring.update(wiring_of(v, circuit))
    split = split_vertices(g, wiring)
    assert split.num_arcs == g.num_arcs
    assert all(split.out_degree(v) == 1 for v in range(split.num_vertices))
    merged = merge_circuit(find_eulerian_circuit(split), g)
    assert merged.canonical() == circuit.canonical()


def test_partial_split_forces_one_wiring():
    g = build_de_bruijn_graph(3, 2)
    circuit = find_eulerian_circuit(g)
    target = wiring_of(0, circuit)
    split = split_vertices(g, target)
    merged = merge_circuit(find_eulerian_circuit(split), g)
    assert wiring_of(0, merged) == target
    assert is_de_bruijn(word_of(merged), sigma=3, k=2).holds


@pytest.mark.parametrize("bad", [
    lambda g: {g.in_arcs[0][0]: g.out_arcs[0][0]},  # one in-arc of three
    lambda g: {**dict(zip(g.in_arcs[0], g.out_arcs[0])),  # a second vertex wired in part
               g.in_arcs[1][0]: g.out_arcs[1][0]},
    lambda g: dict.fromkeys(g.in_arcs[0], g.out_arcs[0][0]),  # one out-arc for all
    lambda g: dict(zip(g.in_arcs[0], g.out_arcs[1])),  # out-arcs of another vertex
    lambda g: {**dict(zip(g.in_arcs[0], g.out_arcs[0])), -1: g.out_arcs[2][0]},  # no arc id
    lambda g: {g.num_arcs: 0},  # past the last arc
])
def test_wired_traversal_rejects_a_wiring_that_is_no_perfect_matching(bad):
    # the traversal in place and the split graph share one check, so one message
    g = build_de_bruijn_graph(3, 2)
    messages = []
    for traverse in (find_eulerian_circuit, split_vertices):
        with pytest.raises(ParameterOutOfRange) as caught:
            traverse(g, bad(g))
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_a_wiring_that_closes_a_cycle_early_is_not_connected():
    g = build_de_bruijn_graph(2, 2)  # vertex 0 has the loop 00 and the arc 01
    loop, away = g.out_arcs[0]
    pairs = {(loop, loop), (g.in_arcs[0][1], away)}  # the loop wired back to itself
    with pytest.raises(NotConnected):
        find_eulerian_circuit(g, dict(pairs))
    with pytest.raises(NotConnected):  # and so is the split graph
        find_eulerian_circuit(split_vertices(g, dict(pairs)))


# ----------------------------------------------------------------------
# Hamiltonian lift


def test_hamiltonian_lift_round_trip():
    g2 = build_de_bruijn_graph(3, 2)
    g3 = build_de_bruijn_graph(3, 3)
    euler = find_eulerian_circuit(g2)
    ham = hamiltonian_from_eulerian(euler, g3)
    seen = ham.vertex_seq()
    assert len(seen) == len(set(seen)) == g3.num_vertices
    # each traversed order-2 arc becomes the visited order-3 vertex, in order
    assert [g3.vertex_labels[v] for v in seen] == [g2.arc_word(a) for a in euler.arc_seq]
    word = circuit_to_word(euler).entries
    assert circuit_to_word(ham).entries == word[1:] + word[:1]


def test_kautz_word_lifts_to_known_vertex_cycle():
    g2 = build_kautz_graph(4, 2)
    g3 = build_kautz_graph(4, 3)
    circuit = word_to_circuit(DNA.parse("ATCGAGCTGTAC"), g2)
    ham = hamiltonian_from_eulerian(circuit, g3)
    labels = [DNA.render(g3.vertex_labels[v]) for v in ham.vertex_seq()]
    # the claim is the cyclic visiting order, not the starting phase
    start = labels.index("AT")
    assert labels[start:] + labels[:start] == [
        "AT", "TC", "CG", "GA", "AG", "GC", "CT", "TG", "GT", "TA", "AC", "CA",
    ]


def test_lift_onto_a_graph_without_the_lifted_words_is_a_typed_error():
    euler = find_eulerian_circuit(build_de_bruijn_graph(3, 2))
    with pytest.raises(ParameterOutOfRange, match=r"\(0, 0, 1\)"):
        hamiltonian_from_eulerian(euler, build_kautz_graph(3, 3))
