"""Graph construction tests.

Counts and degrees of the de Bruijn, Kautz, and restricted word graphs are
all forced by the defining languages, so they make precise regressions.  The
restricted-graph cases pin the local structure used by the fixed-weight
constructions (who points at whom, and which vertices are unbalanced).
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from orthoseq.alphabet import LanguageSpec, default_alphabet, dna_alphabet, expand_language
from orthoseq.circuits import (
    circuit_to_word,
    find_eulerian_circuit,
    split_vertices,
    word_to_circuit,
)
from orthoseq.errors import ParameterOutOfRange
from orthoseq.graphs import (
    build_de_bruijn_graph,
    build_kautz_graph,
    build_language_graph,
    build_restricted_graph,
    mixed_radix_join,
    tensor_product,
)

DNA = dna_alphabet()


def vertex(graph, text: str) -> int:
    return graph.vertex_index[DNA.parse(text)]


# ----------------------------------------------------------------------
# full de Bruijn graphs


@pytest.mark.parametrize("sigma,k", [(2, 2), (3, 2), (4, 3), (2, 4)])
def test_de_bruijn_graph_counts(sigma, k):
    g = build_de_bruijn_graph(sigma, k)
    assert g.num_vertices == sigma ** (k - 1)
    assert g.num_arcs == sigma**k
    for v in range(g.num_vertices):
        assert g.in_degree(v) == sigma
        assert g.out_degree(v) == sigma
    assert sum(t == h for t, h in zip(g.tails, g.heads)) == sigma
    assert sorted(find_eulerian_circuit(g).arc_seq) == list(range(g.num_arcs))


@pytest.mark.parametrize(
    "sigma,k", [(sigma, k) for sigma in range(2, 6) for k in range(1, 5)]
)
def test_arithmetic_de_bruijn_graph_equals_the_generic_build(sigma, k):
    fast = build_de_bruijn_graph(sigma, k)
    generic = build_restricted_graph(
        itertools.product(range(sigma), repeat=k), kind="de_bruijn", sigma=sigma
    )
    for attr in ("vertex_labels", "vertex_index", "in_arcs", "out_arcs", "signature",
                 "kind", "sigma", "k", "tails", "heads", "symbols"):
        assert getattr(fast, attr) == getattr(generic, attr), attr
    assert fast.full_de_bruijn and not generic.full_de_bruijn
    assert all(a == sum(s * sigma**i for i, s in enumerate(reversed(fast.arc_word(a))))
               for a in range(fast.num_arcs))


def test_partial_language_named_de_bruijn_takes_the_lookup_path():
    # the kind string alone must not switch on arithmetic arc ids
    language = [w for w in itertools.product(range(3), repeat=2) if w != (0, 1)]
    g = build_restricted_graph(language, kind="de_bruijn", sigma=3)
    assert not g.full_de_bruijn
    assert g.arc_id_of_word((0, 2)) == 1  # not its base-3 value, 2
    word = (0, 0, 2, 1, 1, 2, 2, 1, 0)
    circuit = word_to_circuit(word, g)
    windows = [word[t - 1 : t + 1] if t else (word[-1], word[0]) for t in range(len(word))]
    assert circuit.arc_seq == tuple(map(g.arc_id_of_word, windows))
    assert circuit_to_word(circuit).entries == word
    with pytest.raises(ParameterOutOfRange, match=r"window \(0, 1\) is not an arc"):
        word_to_circuit((0, 1, 1), g)


def test_degree_sums_match_arc_count():
    g = build_de_bruijn_graph(3, 3)
    assert sum(g.in_degree(v) for v in range(g.num_vertices)) == g.num_arcs
    assert sum(g.out_degree(v) for v in range(g.num_vertices)) == g.num_arcs


def test_arc_words_are_windows():
    g = build_de_bruijn_graph(3, 2)
    generic = build_restricted_graph(
        itertools.product(range(3), repeat=2), kind="de_bruijn", sigma=3
    )
    for a in range(g.num_arcs):
        word = g.arc_word(a)
        assert g.vertex_labels[g.tails[a]] == word[:-1]
        assert g.vertex_labels[g.heads[a]] == word[1:]
        assert g.arc_id_of_word(word) == generic.arc_id_of_word(word) == a
    # not arc words: wrong length, a symbol out of range, a symbol of another type
    for word in [(), (0,), (0, 1, 2), (0, 3), (-1, 0), (0, "1"), (None, 0), (0, 0.5)]:
        for graph in (g, generic):
            with pytest.raises(KeyError):
                graph.arc_id_of_word(word)
    # symbols equal to ints are keys of the lookup, so they are accepted on both
    assert g.arc_id_of_word((True, 2.0)) == generic.arc_id_of_word((True, 2.0)) == 5
    assert not hasattr(g, "_word_to_arc")


# ----------------------------------------------------------------------
# Kautz graphs


@pytest.mark.parametrize("sigma,k", [(3, 2), (4, 2), (4, 3)])
def test_kautz_graph_counts(sigma, k):
    g = build_kautz_graph(sigma, k)
    assert g.num_vertices == sigma * (sigma - 1) ** (k - 2)
    assert g.num_arcs == sigma * (sigma - 1) ** (k - 1)
    assert not any(t == h for t, h in zip(g.tails, g.heads))
    for v in range(g.num_vertices):
        assert g.in_degree(v) == sigma - 1
        assert g.out_degree(v) == sigma - 1


def test_kautz_graph_dna_example():
    g = build_kautz_graph(4, 3)
    assert g.num_vertices == 12
    assert g.num_arcs == 36


# ----------------------------------------------------------------------
# restricted graphs


def test_weight_one_kautz_graph_local_structure():
    # arcs are the weight-1 Kautz 3-words over ATCG with W = {C, G}
    language = expand_language(LanguageSpec("kautz", 3, min_weight=1, max_weight=1), DNA)
    g = build_restricted_graph(language)
    ca = vertex(g, "CA")
    preds = {g.vertex_labels[g.tails[a]] for a in g.in_arcs[ca]}
    succs = {g.vertex_labels[g.heads[a]] for a in g.out_arcs[ca]}
    assert preds == {DNA.parse("AC"), DNA.parse("TC")}
    assert succs == {DNA.parse("AT")}
    # the skew at CA (and at AC) is exactly why this band has no covering
    assert g.in_degree(ca) == 2 and g.out_degree(ca) == 1
    ac = vertex(g, "AC")
    assert g.in_degree(ac) == 1 and g.out_degree(ac) == 2


def test_restricted_graph_rejects_empty_language():
    with pytest.raises(ParameterOutOfRange):
        build_restricted_graph([])


def test_restricted_graph_band_two_three():
    language = expand_language(LanguageSpec("full", 4, min_weight=2, max_weight=3), DNA)
    g = build_restricted_graph(language)
    assert g.num_arcs == len(language)
    # every arc word stays inside the band
    for a in range(g.num_arcs):
        w = sum(1 for s in g.arc_word(a) if s in DNA.weighted)
        assert 2 <= w <= 3


LANGUAGE_ALPHABETS = [DNA, default_alphabet(5, (0, 3)), default_alphabet(6, (1, 2, 5))]


@pytest.mark.parametrize("alphabet", LANGUAGE_ALPHABETS, ids=lambda a: "".join(a.tokens))
@pytest.mark.parametrize("kind", ["full", "kautz"])
def test_language_graph_arcs_ascend_with_their_words_at_every_vertex(alphabet, kind):
    # the shift wirings pair in-arcs in order of their leading symbols with
    # out-arcs in order of their trailing symbols, reading both off the arc ids
    for k in range(2, 6):
        for lo, hi in itertools.combinations_with_replacement(range(k + 1), 2):
            try:
                g = build_language_graph(LanguageSpec(kind, k, lo, hi), alphabet)
            except ParameterOutOfRange:  # an empty language
                continue
            for v in range(g.num_vertices):
                leading = [g.arc_word(a)[0] for a in g.in_arcs[v]]
                trailing = [g.symbols[a] for a in g.out_arcs[v]]
                assert leading == sorted(set(leading)) and trailing == sorted(set(trailing))


def test_word_lookup_on_table_built_graphs_inverts_arc_word():
    spec = LanguageSpec("kautz", 4, min_weight=1, max_weight=3)
    product = tensor_product(build_de_bruijn_graph(2, 2), build_kautz_graph(3, 2))
    for g in (build_kautz_graph(4, 3), build_language_graph(spec, DNA), product):
        ids = range(g.num_arcs)
        assert [g.arc_id_of_word(g.arc_word(a)) for a in ids] == list(ids)
        assert len(set(g.arc_words())) == g.num_arcs  # one word per arc, so the inverse is total
    g = build_kautz_graph(4, 2)
    split = split_vertices(g, dict(zip(g.in_arcs[0], g.out_arcs[0])))
    assert split.arc_id_of_word((1, 0)) == g.arc_id_of_word((1, 0))  # asked of the base
    with pytest.raises(KeyError):
        split.arc_id_of_word((0, 0))


def test_split_separates_in_out_pairs():
    language = expand_language(LanguageSpec("full", 4, min_weight=2, max_weight=3), DNA)
    g = build_restricted_graph(language)
    caa = vertex(g, "CAA")
    assert g.in_degree(caa) == 2
    shift0 = dict(zip(g.in_arcs[caa], g.out_arcs[caa]))  # as the fixed-weight families wire
    split = split_vertices(g, shift0)
    # the shift-0 wiring routes CCAA -> CAAC and GCAA -> CAAG
    def arc(text: str) -> int:
        return g.arc_id_of_word(DNA.parse(text))

    piece_of_in = {a: split.heads[a] for a in (arc("CCAA"), arc("GCAA"))}
    piece_of_out = {a: split.tails[a] for a in (arc("CAAC"), arc("CAAG"))}
    assert piece_of_in[arc("CCAA")] == piece_of_out[arc("CAAC")]
    assert piece_of_in[arc("GCAA")] == piece_of_out[arc("CAAG")]
    assert piece_of_in[arc("CCAA")] != piece_of_in[arc("GCAA")]
    for piece in piece_of_in.values():
        assert split.in_degree(piece) == 1 and split.out_degree(piece) == 1


# ----------------------------------------------------------------------
# tensor products and the digit map


def test_tensor_product_counts():
    g1 = build_de_bruijn_graph(2, 2)
    g2 = build_de_bruijn_graph(3, 2)
    prod = tensor_product(g1, g2)
    assert prod.num_vertices == g1.num_vertices * g2.num_vertices
    assert prod.num_arcs == g1.num_arcs * g2.num_arcs
    assert prod.factors == (g1, g2)
    # arc a1*|A2| + a2 is the pair (a1, a2): one arc per pair
    pairs = itertools.product(range(g1.num_arcs), range(g2.num_arcs))
    assert [(g1.symbols[a1], g2.symbols[a2]) for a1, a2 in pairs] == list(prod.symbols)


def test_tensor_product_endpoints_are_pairs():
    g1 = build_de_bruijn_graph(2, 2)
    g2 = build_de_bruijn_graph(3, 2)
    prod = tensor_product(g1, g2)
    for a1 in range(g1.num_arcs):
        for a2 in range(g2.num_arcs):
            pa = a1 * g2.num_arcs + a2
            assert prod.vertex_labels[prod.tails[pa]] == (
                g1.vertex_labels[g1.tails[a1]],
                g2.vertex_labels[g2.tails[a2]],
            )
            assert prod.vertex_labels[prod.heads[pa]] == (
                g1.vertex_labels[g1.heads[a1]],
                g2.vertex_labels[g2.heads[a2]],
            )


def test_digit_split_join_round_trip():
    entries = (11, 3, 7, 0, 10)
    hi = tuple(e // 3 for e in entries)
    lo = tuple(e % 3 for e in entries)
    assert mixed_radix_join([hi, lo], [4, 3]) == entries


def test_mixed_radix_join_runs_over_the_lcm_of_the_lengths():
    # coprime lengths pair every position of one stream with every one of the other
    assert mixed_radix_join([(0, 1), (0, 1, 2)], [2, 3]) == (0, 4, 2, 3, 1, 5)
    # equal lengths are a plain zip
    assert mixed_radix_join([(1, 0, 1), (2, 2, 0)], [2, 3]) == (5, 2, 3)


@pytest.mark.parametrize("sigma1,sigma2,k", [(2, 2, 2), (2, 3, 2), (4, 3, 3)])
def test_digit_isomorphism_is_exhaustively_checked(sigma1, sigma2, k):
    """Entrywise joining maps the arcs and vertices of the tensor product of
    the order-k graphs over sigma1 and sigma2 symbols one to one onto those
    of the order-k graph over sigma1*sigma2 symbols."""
    big = build_de_bruijn_graph(sigma1 * sigma2, k)
    g1, g2 = build_de_bruijn_graph(sigma1, k), build_de_bruijn_graph(sigma2, k)
    prod = tensor_product(g1, g2)
    radices = (sigma1, sigma2)
    image = set()
    for (a1, a2) in itertools.product(range(g1.num_arcs), range(g2.num_arcs)):
        pid = a1 * g2.num_arcs + a2
        joined = mixed_radix_join([g1.arc_word(a1), g2.arc_word(a2)], radices)
        big_arc = big.arc_id_of_word(joined)
        image.add(big_arc)
        for end, big_end in ((prod.tails[pid], big.tails[big_arc]),
                             (prod.heads[pid], big.heads[big_arc])):
            hi, lo = prod.vertex_labels[end]
            assert mixed_radix_join([hi, lo], radices) == big.vertex_labels[big_end]
    assert len(image) == prod.num_arcs == big.num_arcs


# ----------------------------------------------------------------------
# serialization


def test_signature_is_deterministic():
    a = build_de_bruijn_graph(3, 2)
    b = build_de_bruijn_graph(3, 2)
    assert a.signature == b.signature
    assert a.signature != build_kautz_graph(3, 2).signature


def test_dot_and_json_exports():
    g = build_de_bruijn_graph(3, 2)
    dot = g.to_dot(DNA if g.sigma == 4 else None)
    assert dot.startswith("digraph")
    assert dot.count("->") == g.num_arcs
    doc = g.to_json_dict()
    assert len(doc["arcs"]) == g.num_arcs
    assert len(doc["vertices"]) == g.num_vertices


def _shifted_split():
    g = build_de_bruijn_graph(3, 2)
    return split_vertices(g, {
        a: b
        for v in (0, 2)
        for a, b in zip(g.in_arcs[v], g.out_arcs[v][1:] + g.out_arcs[v][:1])
    })


PINNED_GRAPHS = {  # name: (build, signature, digest of the dot and json exports)
    "de_bruijn": (lambda: build_de_bruijn_graph(3, 3), "a2c6ad4501d07143", "6d41709256de09ed"),
    "kautz": (lambda: build_kautz_graph(4, 3), "4ca4e6d432b87d48", "27d16d895bd3fa92"),
    "weight_band": (
        lambda: build_language_graph(LanguageSpec("kautz", 4, min_weight=1, max_weight=3), DNA),
        "32b7678d5b371108", "f17597b21c265654",
    ),
    "product": (
        lambda: tensor_product(build_de_bruijn_graph(2, 2), build_kautz_graph(3, 2)),
        "3d305f186777f1a8", "27644a628aa33eab",
    ),
    "split": (_shifted_split, "43f45e6f482683c1", "cbaa8e7b88181455"),
}


@pytest.mark.parametrize("name", sorted(PINNED_GRAPHS))
def test_signatures_and_exports_are_pinned(name):
    build, signature, exports = PINNED_GRAPHS[name]
    g = build()
    assert g.signature == signature
    text = g.to_dot(DNA if g.sigma == 4 else None) + json.dumps(g.to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == exports
