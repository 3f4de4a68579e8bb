"""Construction pipeline tests.

Every public constructor is exercised at small parameters and its result is
re-verified here with the brute-force oracles, independently of the
certificate the constructor already computed.  Known worked examples (the
sigma=4 cycle family with its loop insertions, and the composed sigma=12
sequence) are pinned byte for byte.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import itertools
import time
from pathlib import Path

import pytest

from orthoseq.alphabet import Word, default_alphabet, dna_alphabet
from orthoseq.circuits import circuit_to_word, find_eulerian_circuit, word_to_circuit
from orthoseq.constructions import (
    FAMILIES,
    _field_tables,
    OrthogonalCollectionRequest,
    build_b_circuit,
    combine_closed_walks,
    construct,
    construct_fixed_weight_kautz_orthogonal,
    construct_fixed_weight_orthogonal_db,
    construct_l_orthogonal_de_bruijn,
    construct_l_orthogonal_kautz,
    construct_orthogonal_balanced_de_bruijn,
    construct_orthogonal_balanced_kautz,
    factorize,
    find_arc_disjoint_avoiding_cycles,
    fixed_weight_kautz_exists,
    insert_loop,
    is_prime_power,
    partition_vertices,
    smallest_prime_power_geq,
)
from orthoseq.errors import (
    NotCoprime,
    NotPrimePower,
    ParameterOutOfRange,
    UnsupportedCase,
)
from orthoseq.graphs import build_de_bruijn_graph, tensor_product
from orthoseq.verify import (
    is_b_balanced,
    is_b_balanced_kautz,
    is_b_circuit,
    is_de_bruijn,
    is_fixed_weight_db,
    is_kautz_word,
    is_l_orthogonal,
    is_self_orthogonal,
    are_arc_disjoint,
)

DNA = dna_alphabet()


def digits(text: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in text)


def word_of(circuit) -> tuple[int, ...]:
    return circuit_to_word(circuit).entries


# ----------------------------------------------------------------------
# arithmetic helpers


def test_factorize():
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(7) == {7: 1}
    with pytest.raises(ParameterOutOfRange):
        factorize(1)


def test_prime_power_predicates():
    assert [n for n in range(2, 17) if is_prime_power(n)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16,
    ]
    assert smallest_prime_power_geq(6) == 7
    assert smallest_prime_power_geq(12) == 13
    assert smallest_prime_power_geq(16) == 16


def test_partition_vertices():
    g = build_de_bruijn_graph(3, 2)
    assert partition_vertices(g, 2) == [[0], [1, 2]]
    assert partition_vertices(g, 3) == [[0], [1], [2]]
    h = build_de_bruijn_graph(3, 3)
    assert [len(block) for block in partition_vertices(h, 3)] == [3, 3, 3]
    with pytest.raises(ParameterOutOfRange):
        partition_vertices(g, 4)


# ----------------------------------------------------------------------
# l-orthogonal de Bruijn families


def test_de_bruijn_family_frozen_output():
    result = construct_l_orthogonal_de_bruijn(3, 2, 1)
    assert [DNA.render(w) if False else "".join(map(str, w)) for w in result.words] == [
        "010211220",
        "011002212",
    ]
    assert result.info == {"count": 2, "K": 2, "upper_bound": 2}


@pytest.mark.parametrize(
    "sigma,k,ell",
    [(3, 2, 1), (3, 2, 2), (4, 2, 1), (4, 2, 2), (4, 3, 2), (5, 2, 2)],
)
def test_de_bruijn_family_reverified(sigma, k, ell):
    result = construct_l_orthogonal_de_bruijn(sigma, k, ell)
    assert len(result.words) == ell * result.info["K"]
    for word in result.words:
        assert is_de_bruijn(word, sigma=sigma, k=k).holds
    assert is_l_orthogonal(result.words, k=k, ell=ell).holds
    assert all(report.holds for report in result.certificate)


def test_de_bruijn_family_rejects_bad_parameters():
    with pytest.raises(ParameterOutOfRange):
        construct_l_orthogonal_de_bruijn(2, 2, 1)
    with pytest.raises(ParameterOutOfRange):
        construct_l_orthogonal_de_bruijn(3, 2, 10)  # beyond ell*(sigma-1)


# ----------------------------------------------------------------------
# l-orthogonal Kautz families


def test_kautz_family_frozen_output():
    result = construct_l_orthogonal_kautz(4, 2, 1)
    assert ["".join(map(str, w)) for w in result.words] == [
        "102031213230",
        "021032012313",
    ]


@pytest.mark.parametrize("sigma,k,ell", [(4, 2, 1), (4, 2, 2), (4, 3, 1), (5, 2, 2)])
def test_kautz_family_reverified(sigma, k, ell):
    result = construct_l_orthogonal_kautz(sigma, k, ell)
    assert len(result.words) == ell * result.info["K"]
    for word in result.words:
        assert is_kautz_word(word, sigma=sigma, k=k).holds
    assert is_l_orthogonal(result.words, k=k, ell=ell).holds


def test_kautz_family_rejects_bad_parameters():
    # rewiring needs degree sigma - 1 >= 3, so the family starts at sigma = 4
    with pytest.raises(ParameterOutOfRange):
        construct_l_orthogonal_kautz(3, 2, 1)
    with pytest.raises(ParameterOutOfRange):
        construct_l_orthogonal_kautz(4, 1, 1)


# The paper's family sizes, K = floor(sigma/2) for de Bruijn (2 at sigma = 3)
# and K' = max(2, floor((sigma-1)/2)) for Kautz.  The construction reads K off
# the graph's degree, so this table is the only check on it.
FAMILY_SIZES = [(construct_l_orthogonal_de_bruijn, sigma, big_k) for sigma, big_k in
                zip(range(3, 11), (2, 2, 2, 3, 3, 4, 4, 5))]
FAMILY_SIZES += [(construct_l_orthogonal_kautz, sigma, big_k) for sigma, big_k in
                 zip(range(4, 11), (2, 2, 2, 3, 3, 4, 4))]


@pytest.mark.parametrize("construct_family,sigma,big_k", FAMILY_SIZES)
def test_family_size_matches_the_paper(construct_family, sigma, big_k):
    result = construct_family(sigma, 2, 2)
    assert result.info["K"] == big_k
    assert len(result.words) == 2 * big_k


# Degree-3 vertices are folded, one reversed segment order after another;
# every other block vertex is rewired by cycle joining.  On the benchmark's
# degree >= 4 rewiring mix (the fixed-weight family under every weighted pair
# it draws, two of which need the per-vertex join) and on
# l_orthogonal_de_bruijn(4, 7, 2) no block reaches the fold.
ENGINE_ONLY = (
    [
        dict(family="de-bruijn", sigma=s, k=k, ell=ell)
        for s, k in ((4, 5), (5, 4), (6, 4), (8, 3), (9, 3), (5, 5))
        for ell in (1, 2, 4)
    ]
    + [
        dict(family="kautz", sigma=s, k=k, ell=ell)
        for s, k in ((5, 5), (6, 4), (8, 3))
        for ell in (1, 2)
    ]
    + [
        dict(family="balanced-kautz", c=c, b=b, k=3)
        for c, b in ((2, 2), (1, 3), (3, 1))
    ]
    + [
        dict(family="fixed-weight-de-bruijn", k=k, weight=w, alphabet=dna_alphabet(pair))
        for pair in itertools.combinations(range(4), 2)
        for k in (5, 6)
        for w in range(1, k + 1)
    ]
    + [dict(family="de-bruijn", sigma=4, k=7, ell=2)]
)


def test_degree_four_and_up_blocks_never_reach_the_fold(monkeypatch):
    import orthoseq.circuits as circuits

    fold = circuits._reverse_threes
    calls = []

    def counted(g, seq, vertices):
        calls.append(len(vertices))
        return fold(g, seq, vertices)

    monkeypatch.setattr(circuits, "_reverse_threes", counted)
    construct(OrthogonalCollectionRequest(family="de-bruijn", sigma=3, k=4, ell=2))
    assert calls == [13, 14, 13]  # degree 3: the counter sees every block of the fold
    calls.clear()
    for params in ENGINE_ONLY:
        construct(OrthogonalCollectionRequest(**params))
    assert calls == []


# ----------------------------------------------------------------------
# arc-disjoint avoiding cycles


def test_avoiding_cycles_sigma_four():
    cycles = find_arc_disjoint_avoiding_cycles(4, 2)
    assert len(cycles) == 4
    assert all(len(c) == 15 for c in cycles)
    assert are_arc_disjoint(cycles).holds
    g = cycles[0].graph
    for t, cycle in enumerate(cycles):
        avoided = g.vertex_index[(t, t)]
        assert avoided not in cycle.vertex_seq()
        # a cycle: every other vertex exactly once
        assert len(set(cycle.vertex_seq())) == 15
    # the translates of the m-sequence x_n = x_(n-1) + 2 x_(n-2) over GF(4), in order
    assert ["".join(map(str, word_of(c))) for c in cycles] == CYCLES_4


def test_avoiding_cycles_translate_structure():
    # over a prime alphabet the family is the orbit of one base cycle
    cycles = find_arc_disjoint_avoiding_cycles(3, 2)
    words = [word_of(c) for c in cycles]
    assert len(words) == 3 and all(len(w) == 8 for w in words)
    base = words[0]
    for t in (1, 2):
        assert words[t] == tuple((s + t) % 3 for s in base)


def test_avoiding_cycles_binary_order_one():
    cycles = find_arc_disjoint_avoiding_cycles(2, 1)
    assert [word_of(c) for c in cycles] == [(1,), (0,)]


@pytest.mark.parametrize("k", [1, 2])
def test_avoiding_cycles_need_prime_power(k):
    with pytest.raises(NotPrimePower):
        find_arc_disjoint_avoiding_cycles(6, k)


FIELD_ORDERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
                16: (2, 4), 25: (5, 2), 27: (3, 3)}


def digitwise_sum(a: int, b: int, p: int) -> int:
    out, place = 0, 1
    while a or b:
        out += (a % p + b % p) % p * place
        a, b, place = a // p, b // p, place * p
    return out


@pytest.mark.parametrize("q", sorted(FIELD_ORDERS))
def test_field_tables_are_a_field_with_digitwise_addition(q):
    p, m = FIELD_ORDERS[q]
    add, mul = _field_tables(p, m)
    elements = range(q)
    assert all(add[a][b] == digitwise_sum(a, b, p) for a in elements for b in elements)
    for table in (add, mul):
        assert all(table[a][b] == table[b][a] for a in elements for b in elements)
        assert all(
            table[table[a][b]][c] == table[a][table[b][c]]
            for a in elements for b in elements for c in elements
        )
    assert all(mul[1][a] == a and add[0][a] == a for a in elements)
    assert all(
        mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        for a in elements for b in elements for c in elements
    )
    assert all(1 in mul[a] for a in range(1, q))  # every nonzero element has an inverse


@pytest.mark.parametrize(
    "q,k",
    [(2, 1), (3, 2), (4, 3), (7, 2), (8, 2), (9, 2), (7, 3), (8, 3), (4, 5), (2, 10), (16, 2)],
)
def test_avoiding_cycles_are_translates_of_one_m_sequence(q, k):
    p = FIELD_ORDERS[q][0]
    cycles = find_arc_disjoint_avoiding_cycles(q, k)
    assert len(cycles) == q
    assert are_arc_disjoint(cycles).holds
    g = cycles[0].graph
    base = word_of(cycles[0])
    for t, cycle in enumerate(cycles):
        assert word_of(cycle) == tuple(digitwise_sum(s, t, p) for s in base)
        visits = [g.vertex_labels[v] for v in cycle.vertex_seq()]
        assert sorted(visits) == sorted(set(itertools.product(range(q), repeat=k)) - {(t,) * k})


@pytest.mark.parametrize("c,b,k", [(3, 2, 2), (2, 4, 2), (3, 3, 2), (4, 4, 2), (2, 3, 3)])
def test_balanced_de_bruijn_on_alphabets_the_search_could_not_reach(c, b, k):
    # sigma = 7, 8, 9, 16 at k = 2 and sigma = 7 at k = 3
    start = time.perf_counter()
    result = construct_orthogonal_balanced_de_bruijn(c, b, k)
    assert time.perf_counter() - start < 1.0
    assert all(r.holds for r in result.certificate)
    assert len(result.words) == c
    for word in result.words:
        assert is_b_balanced(word, sigma=result.sigma, k=k, b=b).holds


# ----------------------------------------------------------------------
# loop insertion and walk combination: the sigma=4, k=2 worked family


CYCLES_4 = ["011310221203323", "100201330312232", "233132003021101", "322023112130010"]
LOOPED_4 = ["0111310221203323", "1000201330312232", "2333132003021101", "3222023112130010"]


def test_insert_loop_reproduces_known_circuits():
    g = build_de_bruijn_graph(4, 3)
    loop_at = [(1, 1), (0, 0), (3, 3), (2, 2)]
    for raw, expected, vertex in zip(CYCLES_4, LOOPED_4, loop_at):
        looped = insert_loop(word_to_circuit(digits(raw), g), vertex)
        assert "".join(map(str, word_of(looped))) == expected


def test_insert_loop_needs_a_visit():
    g = build_de_bruijn_graph(2, 2)
    loop_at_one = word_to_circuit((1,), g)
    with pytest.raises(ParameterOutOfRange):
        insert_loop(loop_at_one, (0,))


def test_build_b_circuit_groups():
    g = build_de_bruijn_graph(4, 3)
    cycles = [word_to_circuit(digits(c), g) for c in CYCLES_4]
    first = build_b_circuit(0, 2, cycles)
    second = build_b_circuit(1, 2, cycles)
    for walk in (first, second):
        assert len(walk) == 32
        assert is_b_circuit(walk, g, 2).holds
    assert are_arc_disjoint([first, second]).holds
    assert "".join(map(str, word_of(first))) == "21000201330312230111310221203323"


def test_build_b_circuit_degenerate_single_cycle():
    # b=1 inserts one loop; the cycle must pass through the loop vertex
    g = build_de_bruijn_graph(2, 2)
    walk = build_b_circuit(0, 1, [word_to_circuit((0, 1), g)])
    assert Word(word_of(walk), circular=True).canonical().entries == (0, 0, 1)
    with pytest.raises(ParameterOutOfRange):
        build_b_circuit(0, 1, [word_to_circuit((1, 2, 3), build_de_bruijn_graph(4, 2))])


def test_combine_needs_a_shared_vertex():
    g = build_de_bruijn_graph(2, 2)
    with pytest.raises(ParameterOutOfRange):
        combine_closed_walks([word_to_circuit((0,), g), word_to_circuit((1,), g)])


# ----------------------------------------------------------------------
# tensor composition


def test_tensor_composition_of_coprime_circuits():
    c1 = find_eulerian_circuit(build_de_bruijn_graph(2, 2))  # length 4
    c2 = find_eulerian_circuit(build_de_bruijn_graph(3, 2))  # length 9
    composed = tensor_compose(c1, c2)
    product = composed.graph
    assert len(composed) == 36
    assert is_b_circuit(composed, product, 6).holds


def tensor_compose(c1, c2):
    from orthoseq.constructions import tensor_compose_b_circuits

    return tensor_compose_b_circuits(c1, c2)


def test_tensor_composition_rejects_common_factor():
    c1 = find_eulerian_circuit(build_de_bruijn_graph(2, 2))
    with pytest.raises(NotCoprime):
        tensor_compose(c1, c1)


def test_composition_of_known_words():
    # the two arc-disjoint 2-circuits above, composed with a 3-ary circuit
    g4 = build_de_bruijn_graph(4, 3)
    g3 = build_de_bruijn_graph(3, 3)
    chat = word_to_circuit(
        digits("01113102212033230133031223210002"), g4
    )
    e = word_to_circuit(digits("100020212210222001012112011"), g3)
    composed = tensor_compose(chat, e)
    assert len(composed) == 864  # lcm(32, 27)
    word = _product_word(composed)
    assert word[:5] == (1, 3, 3, 3, 11)
    assert is_b_balanced(word, sigma=12, k=2, b=6).holds
    assert is_self_orthogonal(word, k=2).holds


def _product_word(circuit) -> tuple[int, ...]:
    g1, g2 = circuit.graph.factors
    out = []
    for aid in circuit.arc_seq:
        a1, a2 = divmod(aid, g2.num_arcs)
        out.append(g1.symbols[a1] * g2.sigma + g2.symbols[a2])
    return tuple(out)


# ----------------------------------------------------------------------
# balanced de Bruijn collections


def test_balanced_de_bruijn_prime_power_route():
    result = construct_orthogonal_balanced_de_bruijn(2, 2, 2)
    assert result.sigma == 4
    assert [len(w) for w in result.words] == [32, 32]
    for word in result.words:
        assert is_b_balanced(word, sigma=4, k=2, b=2).holds
        assert is_self_orthogonal(word, k=2).holds
    assert is_l_orthogonal(result.words, k=2, ell=1).holds


def test_balanced_de_bruijn_composite_route():
    # c=2, b=6: every prime of c divides b, so factors compose exactly
    result = construct_orthogonal_balanced_de_bruijn(2, 6, 2)
    assert result.info == {
        "sigma_used": 12,
        "lower_bound": 12,
        "upper_bound": 13,
        "count": 2,
    }
    assert [len(w) for w in result.words] == [864, 864]
    for word in result.words:
        assert is_b_balanced(word, sigma=12, k=2, b=6).holds
    assert is_l_orthogonal(result.words, k=2, ell=1).holds


def test_balanced_de_bruijn_rounds_up_to_prime_power():
    # cb = 6 is not a prime power and 3 does not divide 2: round sigma up to 7
    result = construct_orthogonal_balanced_de_bruijn(3, 2, 2)
    assert result.sigma == 7
    assert result.info["sigma_used"] == 7
    assert len(result.words) == 3
    for word in result.words:
        assert is_b_balanced(word, sigma=7, k=2, b=2).holds
    assert is_l_orthogonal(result.words, k=2, ell=1).holds


def test_balanced_de_bruijn_rejects_degenerate_parameters():
    with pytest.raises(ParameterOutOfRange):
        construct_orthogonal_balanced_de_bruijn(1, 2, 2)
    with pytest.raises(ParameterOutOfRange):
        construct_orthogonal_balanced_de_bruijn(2, 1, 2)


# ----------------------------------------------------------------------
# balanced Kautz collections


def test_balanced_kautz_single_member():
    result = construct_orthogonal_balanced_kautz(1, 1, 2)
    assert result.sigma == 3
    assert [len(w) for w in result.words] == [6]
    assert is_b_balanced_kautz(result.words[0], sigma=3, k=2, b=1).holds


def test_balanced_kautz_pair():
    result = construct_orthogonal_balanced_kautz(2, 2, 2)
    assert result.sigma == 9  # 2cb + 1
    assert [len(w) for w in result.words] == [144, 144]
    for word in result.words:
        assert is_b_balanced_kautz(word, sigma=9, k=2, b=2).holds
        assert is_self_orthogonal(word, k=2).holds
    assert is_l_orthogonal(result.words, k=2, ell=1).holds
    low, high = result.info["lower_bound"], result.info["upper_bound"]
    assert low <= result.info["sigma_used"] <= high
    assert (low, high) == (5, 9)


# ----------------------------------------------------------------------
# fixed-weight de Bruijn


def test_fixed_weight_de_bruijn_dna():
    result = construct_fixed_weight_orthogonal_db(DNA, 4, 3)
    assert result.info == {"count": 2, "language_size": 160}
    language = _band_language(DNA, 4, 2, 3)
    for word in result.words:
        assert len(word) == 160
        assert is_fixed_weight_db(word, language).holds
    # compatible circuits share no (k+1)-window
    assert is_l_orthogonal(result.words, k=4, ell=1).holds


def test_fixed_weight_de_bruijn_small():
    result = construct_fixed_weight_orthogonal_db(DNA, 2, 1)
    assert [len(w) for w in result.words] == [12, 12]
    assert is_l_orthogonal(result.words, k=2, ell=1).holds


def test_fixed_weight_de_bruijn_single_weighted_symbol():
    alphabet = default_alphabet(3, weighted=(2,))
    result = construct_fixed_weight_orthogonal_db(alphabet, 3, 2)
    assert len(result.words) == 1
    assert len(result.words[0]) == 18
    language = _band_language(alphabet, 3, 1, 2)
    assert is_fixed_weight_db(result.words[0], language).holds


def test_fixed_weight_de_bruijn_rejects_bad_weight():
    with pytest.raises(ParameterOutOfRange):
        construct_fixed_weight_orthogonal_db(DNA, 3, 0)
    with pytest.raises(ParameterOutOfRange):
        construct_fixed_weight_orthogonal_db(DNA, 3, 4)
    with pytest.raises(ParameterOutOfRange):
        construct_fixed_weight_orthogonal_db(default_alphabet(4), 3, 2)


def _band_language(alphabet, k, w_min, w_max, kautz=False):
    from orthoseq.alphabet import LanguageSpec, expand_language

    kind = "kautz" if kautz else "full"
    return expand_language(
        LanguageSpec(kind, k, min_weight=w_min, max_weight=w_max), alphabet
    )


# ----------------------------------------------------------------------
# fixed-weight Kautz


def test_fixed_weight_kautz_existence_table():
    feasible = {(wp, w) for w in range(4) for wp in range(w + 1) if fixed_weight_kautz_exists(3, wp, w)}
    assert feasible == {(0, 0), (3, 3), (0, 2), (1, 2), (0, 3), (1, 3)}
    # order 2 bands are always coverable
    assert all(fixed_weight_kautz_exists(2, wp, w) for w in range(3) for wp in range(w + 1))
    with pytest.raises(ParameterOutOfRange):
        fixed_weight_kautz_exists(3, 2, 1)


def test_fixed_weight_kautz_dna_band():
    result = construct_fixed_weight_kautz_orthogonal(DNA, 3, 1, 2)
    assert len(result.words) == 1
    word = result.words[0]
    assert len(word) == 32
    language = _band_language(DNA, 3, 1, 2, kautz=True)
    assert is_fixed_weight_db(word, language).holds
    # regression pin: the deterministic output is this exact rotation
    known = DNA.parse("CAGATCATGACACTACGAGTAGCTCTGTCGTG")
    assert Word(word, circular=True).canonical() == Word(known, circular=True).canonical()


@pytest.mark.parametrize("band", [(0, 0), (3, 3), (0, 2), (0, 3), (1, 3)])
def test_fixed_weight_kautz_all_feasible_bands(band):
    result = construct_fixed_weight_kautz_orthogonal(DNA, 3, *band)
    language = _band_language(DNA, 3, *band, kautz=True)
    assert len(result.words) >= 1
    for word in result.words:
        assert is_fixed_weight_db(word, language).holds
    assert is_l_orthogonal(result.words, k=3, ell=1).holds


def test_fixed_weight_kautz_rejects_infeasible_band():
    with pytest.raises(UnsupportedCase):
        construct_fixed_weight_kautz_orthogonal(DNA, 3, 1, 1)
    with pytest.raises(ParameterOutOfRange):
        construct_fixed_weight_kautz_orthogonal(default_alphabet(4, weighted=(3,)), 3, 0, 2)


@pytest.mark.parametrize("params", [
    dict(family="fixed-weight-de-bruijn", alphabet=DNA, k=5, weight=2),
    dict(family="fixed-weight-kautz", alphabet=DNA, k=4, weight_band=(1, 3)),
    dict(family="fixed-weight-kautz", alphabet=DNA, k=3, weight_band=(3, 3)),
])
def test_fixed_weight_request_expands_its_language_once(params, monkeypatch):
    import orthoseq

    calls = []
    expand = orthoseq.alphabet.language_ids

    def counted(spec, alphabet):
        calls.append(spec)
        return expand(spec, alphabet)

    for module in (orthoseq.alphabet, orthoseq.graphs, orthoseq.constructions):
        if hasattr(module, "language_ids"):
            monkeypatch.setattr(module, "language_ids", counted)
    result = construct(OrthogonalCollectionRequest(**params))
    assert len(calls) == 1
    assert result.info["language_size"] == len(result.words[0])


# ----------------------------------------------------------------------
# the request front end


def test_construct_dispatch_round_trip():
    request = OrthogonalCollectionRequest(family="de-bruijn", sigma=3, k=2, ell=2)
    result = construct(request)
    assert result.family == "de-bruijn"
    assert len(result.words) == 4


def test_construct_dispatch_balanced():
    request = OrthogonalCollectionRequest(family="balanced-kautz", c=1, b=1, k=2)
    assert construct(request).sigma == 3


def test_construct_rejects_unknown_family_and_missing_parameters():
    with pytest.raises(ParameterOutOfRange):
        construct(OrthogonalCollectionRequest(family="mystery", sigma=3))
    with pytest.raises(ParameterOutOfRange):
        construct(OrthogonalCollectionRequest(family="balanced-de-bruijn", c=2))
    with pytest.raises(ParameterOutOfRange):
        construct(OrthogonalCollectionRequest(family="fixed-weight-de-bruijn", alphabet=DNA, k=3))


# the label each family's missing request fields are reported under
MISSING_LABELS = {
    "de-bruijn": {"sigma": "sigma"},
    "kautz": {"sigma": "sigma"},
    "balanced-de-bruijn": {"c": "c", "b": "b"},
    "balanced-kautz": {"c": "c", "b": "b"},
    "fixed-weight-de-bruijn": {"alphabet": "alphabet with a weighted class", "weight": "weight"},
    "fixed-weight-kautz": {
        "alphabet": "alphabet with a weighted class",
        "weight_band": "weight band",
    },
}


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_family_table_row(family):
    assert dict(family.needs) == MISSING_LABELS[family.name]
    full = OrthogonalCollectionRequest(
        family=family.name, sigma=3, c=2, b=2, weight=2, weight_band=(1, 2), alphabet=DNA
    )
    for field_name, label in family.needs:
        request = dataclasses.replace(full, **{field_name: None})
        with pytest.raises(ParameterOutOfRange, match=f"^missing parameter: {label}$"):
            construct(request)
    # construct takes canonical names only; aliases are a command-line spelling
    for name in family.aliases + ("mystery",):
        with pytest.raises(ParameterOutOfRange, match="^unknown family"):
            construct(dataclasses.replace(full, family=name))


def test_benchmark_tracer_finds_every_wrapped_function():
    # the tracer replaces these module attributes by name and fails on a missing one
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, home, functions in tracing.WRAPPED:
        module = importlib.import_module(home)
        assert [f for f in functions if not callable(getattr(module, f, None))] == []
