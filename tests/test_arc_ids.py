"""Arc ids read from the arc tables, each against the table it replaced.

* `arc_id_of_word` (the out-arc of the prefix vertex with the word's last
  symbol) against a word -> arc dict over `arc_words()`, on every graph kind,
  for arc words, words of other graphs and non-words alike
* the order lift by out-arc position against the lift through word tuples
  and that dict, on random Eulerian circuits of de Bruijn and Kautz graphs
* tensor-product arc a1*|A2| + a2 against the pair -> arc dict, for the
  product's own arcs and for composed coprime circuits
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from orthoseq.alphabet import LanguageSpec, dna_alphabet
from orthoseq.circuits import (
    Circuit,
    find_eulerian_circuit,
    hamiltonian_from_eulerian,
    rewire_vertex_set,
    split_vertices,
)
from orthoseq.constructions import (
    build_b_circuit,
    find_arc_disjoint_avoiding_cycles,
    tensor_compose_b_circuits,
)
from orthoseq.errors import NotConnected, ParameterOutOfRange
from orthoseq.graphs import (
    DirectedMultigraph,
    build_de_bruijn_graph,
    build_kautz_graph,
    build_language_graph,
    build_restricted_graph,
    tensor_product,
)

# ----------------------------------------------------------------------
# the reference mechanisms: the tables the arc tables replaced


def word_table(g: DirectedMultigraph) -> dict:
    """Word -> arc id over every arc, as the graphs kept it."""
    return dict(zip(g.arc_words(), range(g.num_arcs)))


def lift_by_words(circuit: Circuit, lifted: DirectedMultigraph) -> tuple:
    """Arcs a, b in turn lift to the arc whose word is a's word plus b's symbol."""
    g, seq = circuit.graph, circuit.arc_seq
    table = word_table(lifted)
    return tuple(table[g.arc_word(a) + (g.symbols[b],)] for a, b in zip(seq, seq[1:] + seq[:1]))


def compose_by_pairs(c1: Circuit, c2: Circuit, product: DirectedMultigraph) -> tuple:
    """Position t of the composed circuit through a (a1, a2) -> arc dict."""
    pairs = itertools.product(range(c1.graph.num_arcs), range(c2.graph.num_arcs))
    pair_to_arc = dict(zip(pairs, range(product.num_arcs)))
    len1, len2 = len(c1), len(c2)
    return tuple(pair_to_arc[(c1.arc_seq[t % len1], c2.arc_seq[t % len2])]
                 for t in range(len1 * len2))


# ----------------------------------------------------------------------
# arc_id_of_word


def _graphs() -> dict:
    dna = dna_alphabet()
    partial = [w for w in itertools.product(range(3), repeat=2) if w != (0, 1)]
    kautz = build_kautz_graph(4, 2)
    wiring = dict(zip(kautz.in_arcs[0], kautz.out_arcs[0]))
    return {
        "de-bruijn": build_de_bruijn_graph(3, 2),
        "de-bruijn-k1": build_de_bruijn_graph(3, 1),
        "de-bruijn-k3": build_de_bruijn_graph(2, 3),
        "restricted": build_restricted_graph(itertools.product(range(3), repeat=2),
                                             kind="de_bruijn", sigma=3),
        "partial-de-bruijn": build_restricted_graph(partial, kind="de_bruijn", sigma=3),
        "kautz": build_kautz_graph(4, 3),
        "weight-band": build_language_graph(LanguageSpec("kautz", 4, 1, 3), dna),
        "product": tensor_product(build_de_bruijn_graph(2, 2), build_kautz_graph(3, 2)),
        "split": split_vertices(kautz, wiring),
    }


GRAPHS = _graphs()
# not arc words anywhere: wrong length, a symbol out of range or of another
# type, an unhashable symbol; and symbols equal to ints, which are words
ODD_WORDS = [(), (0,), (0, 1, 2), (0, 3), (-1, 0), (0, "1"), (None, 0), (0, 0.5),
             (True, 2.0), ([0], 1), (0, [1]), ((0,), (1,), [0, 1])]


def _id_or_none(find, word):
    try:
        return find(word)
    except (KeyError, TypeError):  # the dict raises TypeError on an unhashable word
        return None


@pytest.mark.parametrize("name", GRAPHS)
def test_arc_id_of_word_equals_the_word_table(name):
    g = GRAPHS[name]
    table = word_table(g)
    assert len(table) == g.num_arcs
    candidates = [w for other in GRAPHS.values() for w in other.arc_words()] + ODD_WORDS
    for word in candidates:
        expected = _id_or_none(lambda w: table[tuple(w)], word)
        assert _id_or_none(g.arc_id_of_word, word) == expected, word
        if expected is None:
            with pytest.raises(KeyError):
                g.arc_id_of_word(word)
    if name in ("de-bruijn", "restricted"):  # symbols equal to ints spell a word
        assert g.arc_id_of_word((True, 2.0)) == 5


# ----------------------------------------------------------------------
# the order lift


@st.composite
def eulerian_circuits(draw):
    """A random Eulerian circuit of a de Bruijn (sigma 2-5) or Kautz (sigma
    3-6) graph at k = 2, 3: the traversal under a shift wiring at random
    vertices, a rewired random block (degree >= 3), at a random rotation."""
    kautz = draw(st.booleans())
    sigma = draw(st.integers(3, 6) if kautz else st.integers(2, 5))
    k = draw(st.integers(2, 3))
    g = (build_kautz_graph if kautz else build_de_bruijn_graph)(sigma, k)
    degree = len(g.out_arcs[0])
    shift = draw(st.integers(0, degree - 1))
    wired = draw(st.sets(st.integers(0, g.num_vertices - 1), max_size=4))
    wiring = {}
    for v in wired:
        outs = g.out_arcs[v]
        wiring.update(zip(g.in_arcs[v], outs[shift:] + outs[:shift]))
    try:
        circuit = find_eulerian_circuit(g, wiring)
    except NotConnected:  # the wirings cut the walk into several cycles
        circuit = find_eulerian_circuit(g)
    if degree >= 3:
        block = draw(st.lists(st.integers(0, g.num_vertices - 1), max_size=3, unique=True))
        if block:
            circuit = rewire_vertex_set(block, circuit)
    r = draw(st.integers(0, g.num_arcs - 1))
    return Circuit(g, circuit.arc_seq[r:] + circuit.arc_seq[:r])


@given(circuit=eulerian_circuits())
@settings(max_examples=60, deadline=None)
def test_lift_by_out_arc_position_equals_the_lift_by_words(circuit):
    g = circuit.graph
    build = build_kautz_graph if g.kind == "kautz" else build_de_bruijn_graph
    lifted = build(g.sigma, g.k + 1)
    ham = hamiltonian_from_eulerian(circuit, lifted)
    assert ham.arc_seq == lift_by_words(circuit, lifted)
    assert ham.vertex_seq() == circuit.arc_seq


def _renamed_kautz_3_3(how: str) -> DirectedMultigraph:
    """Kautz(3, 3) with every word, but vertex ids that are not Kautz(3, 2)'s
    arc ids: its labels in reverse order, or its symbols permuted with the
    ids kept, which leaves every arc's tail and head as they were."""
    g = build_kautz_graph(3, 3)
    if how == "reversed":
        words = g.arc_words()
        labels = sorted({w[:-1] for w in words}, reverse=True)
        arcs = [(w[:-1], w[1:], w[-1]) for w in words]
    else:
        p = (1, 2, 0)
        labels = [tuple(p[x] for x in label) for label in g.vertex_labels]
        arcs = [(labels[t], labels[h], p[s]) for t, h, s in zip(g.tails, g.heads, g.symbols)]
    return DirectedMultigraph(labels, arcs, kind="kautz", sigma=3, k=3)


@pytest.mark.parametrize("how", ["reversed", "symbols-permuted"])
def test_lift_refuses_a_lifted_graph_with_other_vertex_ids(how):
    euler = find_eulerian_circuit(build_kautz_graph(3, 2))
    renamed = _renamed_kautz_3_3(how)
    assert len(lift_by_words(euler, renamed)) == 6  # the word search would find every word
    with pytest.raises(ParameterOutOfRange, match="vertex ids"):
        hamiltonian_from_eulerian(euler, renamed)


# ----------------------------------------------------------------------
# tensor-product arcs


@pytest.mark.parametrize("g1,g2", [
    (build_de_bruijn_graph(2, 2), build_de_bruijn_graph(3, 2)),
    (build_de_bruijn_graph(2, 2), build_kautz_graph(3, 2)),
    (build_kautz_graph(4, 3), build_de_bruijn_graph(2, 1)),
])
def test_product_arc_of_a_pair_is_a1_times_a2_count_plus_a2(g1, g2):
    prod = tensor_product(g1, g2)
    pairs = list(itertools.product(range(g1.num_arcs), range(g2.num_arcs)))
    assert [a1 * g2.num_arcs + a2 for a1, a2 in pairs] == list(range(prod.num_arcs))
    for pid, (a1, a2) in enumerate(pairs):
        assert prod.symbols[pid] == (g1.symbols[a1], g2.symbols[a2])
        for ends, ends1, ends2 in ((prod.tails, g1.tails, g2.tails),
                                   (prod.heads, g1.heads, g2.heads)):
            labels = (g1.vertex_labels[ends1[a1]], g2.vertex_labels[ends2[a2]])
            assert prod.vertex_labels[ends[pid]] == labels


def test_composition_by_arithmetic_equals_the_pair_table():
    cycles = find_arc_disjoint_avoiding_cycles(4, 2)
    walks = [build_b_circuit(tau, 2, cycles) for tau in (0, 1)]  # length 32 each
    e3 = find_eulerian_circuit(build_de_bruijn_graph(3, 3))  # length 27
    e2 = find_eulerian_circuit(build_de_bruijn_graph(2, 2))  # length 4
    e5 = find_eulerian_circuit(build_de_bruijn_graph(5, 2))  # length 25
    for c1, c2 in [*((w, e3) for w in walks), (e2, e5), (e5, e2)]:
        for r in (0, 7):  # pairing is phase-sensitive
            c1 = Circuit(c1.graph, c1.arc_seq[r:] + c1.arc_seq[:r])
            composed = tensor_compose_b_circuits(c1, c2)
            assert composed.graph.factors == (c1.graph, c2.graph)
            assert composed.arc_seq == compose_by_pairs(c1, c2, composed.graph)
