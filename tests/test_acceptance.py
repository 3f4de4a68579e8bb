"""Acceptance criteria.

One test per shipping criterion, each printing a single PASS line with its
runtime once every assertion in it has held (a failed assertion surfaces as
the pytest FAIL line for that criterion).  Budgets are asserted, not just
reported.  Everything is re-checked through the brute-force oracles; the
constructors' own certificates are not trusted here.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

from __future__ import annotations

import itertools
import math
import random
import time

from orthoseq.alphabet import LanguageSpec, dna_alphabet, expand_language
from orthoseq.circuits import (
    circuit_to_word,
    find_eulerian_circuit,
    rewire,
    rewire_given,
    word_to_circuit,
    wiring_of,
)
from orthoseq.constructions import (
    build_b_circuit,
    construct_fixed_weight_kautz_orthogonal,
    construct_fixed_weight_orthogonal_db,
    construct_l_orthogonal_de_bruijn,
    construct_l_orthogonal_kautz,
    construct_orthogonal_balanced_de_bruijn,
    construct_orthogonal_balanced_kautz,
    find_arc_disjoint_avoiding_cycles,
    fixed_weight_kautz_exists,
    tensor_compose_b_circuits,
)
from orthoseq.errors import DegreeMismatch, NotConnected
from orthoseq.graphs import build_de_bruijn_graph, build_restricted_graph
from orthoseq.verify import (
    are_arc_disjoint,
    are_compatible,
    circular_window_counts,
    exact_max_orthogonal,
    is_b_balanced,
    is_b_balanced_kautz,
    is_b_circuit,
    is_de_bruijn,
    is_fixed_weight_db,
    is_kautz_word,
    is_l_orthogonal,
    is_self_orthogonal,
)

DNA = dna_alphabet()


def digits(text: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in text)


def word_of(circuit) -> tuple[int, ...]:
    return circuit_to_word(circuit).entries


class budget:
    """Context manager asserting the block finishes inside its budget."""

    def __init__(self, number: int, seconds: float, detail: str):
        self.number = number
        self.seconds = seconds
        self.detail = detail

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            print(f"ACCEPTANCE {self.number}: FAIL  {self.detail}")
            return False
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, (
            f"criterion {self.number} took {elapsed:.1f}s, budget {self.seconds}s"
        )
        print(f"ACCEPTANCE {self.number}: PASS  {self.detail} ({elapsed:.2f}s)")
        return False


def test_criterion_1_worked_example_regressions():
    with budget(1, 1.0, "worked-example regressions hold exactly"):
        # (a) a (3,2)-de Bruijn sequence
        assert is_de_bruijn(digits("012002211"), sigma=3, k=2).holds
        # (b) a 2-orthogonal collection of four
        family = [
            digits("012002211"),
            digits("012022110"),
            digits("011220210"),
            digits("011220021"),
        ]
        assert is_l_orthogonal(family, k=2, ell=2).holds
        # (c) balanced without self-orthogonality, with the exact witness
        loose = digits("000111222020212101")
        assert is_b_balanced(loose, sigma=3, k=2, b=2).holds
        report = is_self_orthogonal(loose, k=2)
        assert not report.holds and report.witness == (2, 0, 2)
        tight = digits("002211012001122021")
        assert is_b_balanced(tight, sigma=3, k=2, b=2).holds
        assert is_self_orthogonal(tight, k=2).holds
        # (d) the DNA Kautz family and its window counts
        kautz_family = [
            DNA.parse("ATCGAGCTGTAC"),
            DNA.parse("ACAGCTATGTCG"),
            DNA.parse("ACTATGCGTCAG"),
            DNA.parse("ACTGCGTAGATC"),
        ]
        assert is_kautz_word(kautz_family[0], sigma=4, k=2).holds
        assert is_l_orthogonal(kautz_family, k=2, ell=2).holds
        totals: dict[tuple[int, ...], int] = {}
        for member in kautz_family:
            for window, n in circular_window_counts(member, 3).items():
                totals[window] = totals.get(window, 0) + n
        assert totals.get(DNA.parse("ATC"), 0) == 2
        assert totals.get(DNA.parse("GAG"), 0) == 1
        assert totals.get(DNA.parse("ATA"), 0) == 0
        # (e) the fixed-weight Kautz sequence for (4, 3, 1, 2)
        language = expand_language(
            LanguageSpec("kautz", 3, min_weight=1, max_weight=2), DNA
        )
        probe = DNA.parse("CAGATCATGACACTACGAGTAGCTCTGTCGTG")
        assert is_fixed_weight_db(probe, language).holds


def test_criterion_2_l_orthogonal_sweep():
    with budget(2, 30.0, "l-orthogonal sweep returns ell*K oracle-clean circuits"):
        for sigma, k in itertools.product((3, 4, 5), (2, 3)):
            for ell in sorted({1, 2, min(3, sigma ** (k - 1))}):
                result = construct_l_orthogonal_de_bruijn(sigma, k, ell)
                assert len(result.words) == ell * result.info["K"]
                for word in result.words:
                    assert is_de_bruijn(word, sigma=sigma, k=k).holds
                assert is_l_orthogonal(result.words, k=k, ell=ell).holds


def test_criterion_3_balanced_collections():
    with budget(3, 60.0, "balanced collections and the seeded composition"):
        small = construct_orthogonal_balanced_de_bruijn(2, 2, 2)
        assert small.sigma == 4
        assert len(small.words) == 2
        for word in small.words:
            assert is_b_balanced(word, sigma=4, k=2, b=2).holds
            assert is_self_orthogonal(word, k=2).holds
        assert is_l_orthogonal(small.words, k=2, ell=1).holds

        big = construct_orthogonal_balanced_de_bruijn(2, 6, 2)
        assert big.info["sigma_used"] == 12
        assert [len(w) for w in big.words] == [864, 864]
        assert math.lcm(32, 27) == 864
        for word in big.words:
            assert is_b_balanced(word, sigma=12, k=2, b=6).holds
        assert is_l_orthogonal(big.words, k=2, ell=1).holds

        # seeded composition: known 2-circuit paired with a known circuit
        g4, g3 = build_de_bruijn_graph(4, 3), build_de_bruijn_graph(3, 3)
        chat = word_to_circuit(digits("01113102212033230133031223210002"), g4)
        e = word_to_circuit(digits("100020212210222001012112011"), g3)
        composed = tensor_compose_b_circuits(chat, e)
        word = _product_word(composed)
        assert len(word) == 864
        assert word[:5] == (1, 3, 3, 3, 11)
        assert is_b_balanced(word, sigma=12, k=2, b=6).holds


def _product_word(circuit) -> tuple[int, ...]:
    g1, g2 = circuit.graph.factors
    return tuple(
        g1.symbols[aid // g2.num_arcs] * g2.sigma + g2.symbols[aid % g2.num_arcs]
        for aid in circuit.arc_seq
    )


def test_criterion_4_tensor_composition():
    with budget(4, 30.0, "tensor products of 2-circuits stay disjoint 6-circuits"):
        cycles = find_arc_disjoint_avoiding_cycles(4, 2)
        groups = [build_b_circuit(tau, 2, cycles) for tau in (0, 1)]
        e = find_eulerian_circuit(build_de_bruijn_graph(3, 3))
        composed = [tensor_compose_b_circuits(walk, e) for walk in groups]
        product = composed[0].graph
        assert product.num_vertices == 144
        assert are_arc_disjoint(composed).holds
        for walk in composed:
            assert len(walk) == 864
            report = is_b_circuit(walk, product, 6)
            assert report.holds  # each vertex seen exactly 6 times
        words = [_product_word(w) for w in composed]
        assert is_l_orthogonal(words, k=2, ell=1).holds


def test_criterion_5_fixed_weight_de_bruijn():
    with budget(5, 10.0, "weight-band DNA collection: two disjoint length-160 covers"):
        result = construct_fixed_weight_orthogonal_db(DNA, 4, 3)
        language = expand_language(
            LanguageSpec("full", 4, min_weight=2, max_weight=3), DNA
        )
        assert len(language) == 160
        assert len(result.words) == 2
        for word in result.words:
            assert len(word) == 160
            assert is_fixed_weight_db(word, language).holds
        assert is_l_orthogonal(result.words, k=4, ell=1).holds
        assert are_compatible(result.circuits).holds


def test_criterion_6_fixed_weight_kautz_existence():
    with budget(6, 10.0, "existence predicate matches direct Eulerian feasibility"):
        for k in (3, 4):
            for w in range(k + 1):
                for wp in range(w + 1):
                    language = expand_language(
                        LanguageSpec("kautz", k, min_weight=wp, max_weight=w), DNA
                    )
                    try:
                        find_eulerian_circuit(build_restricted_graph(language, sigma=4))
                        feasible = True
                    except (DegreeMismatch, NotConnected):
                        feasible = False
                    assert feasible == fixed_weight_kautz_exists(k, wp, w), (k, wp, w)
        # the negative case names an unbalanced vertex
        language = expand_language(
            LanguageSpec("kautz", 3, min_weight=1, max_weight=1), DNA
        )
        graph = build_restricted_graph(language, sigma=4)
        try:
            find_eulerian_circuit(graph)
            assert False, "the weight-1 band must not admit a circuit"
        except DegreeMismatch as exc:
            assert exc.in_degree != exc.out_degree
            # the deterministic scan reports AC (in 1, out 2)
            assert exc.vertex_label == DNA.parse("AC")
        ca = graph.vertex_index[DNA.parse("CA")]
        assert (graph.in_degree(ca), graph.out_degree(ca)) == (2, 1)


def test_criterion_7_bound_tables():
    with budget(7, 300.0, "exhaustive maxima sit inside the published bounds"):
        for sigma in (3, 4):
            value = exact_max_orthogonal(sigma, 2, 1)
            assert sigma // 2 <= value <= sigma - 1
        assert exact_max_orthogonal(3, 2, 1) == 2
        assert exact_max_orthogonal(4, 2, 1) == 3
        # ell=2 at sigma=3: lower and upper bounds coincide at 2*ell
        assert exact_max_orthogonal(3, 2, 2) == 4
        for c, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
            result = construct_orthogonal_balanced_kautz(c, b, 2)
            sigma_used = result.info["sigma_used"]
            assert c * b + 1 <= sigma_used <= 2 * c * b + 1
            for word in result.words:
                assert is_b_balanced_kautz(word, sigma=result.sigma, k=2, b=b).holds
            assert is_l_orthogonal(result.words, k=2, ell=1).holds


def test_criterion_8_randomized_certification_and_rewire_postconditions():
    rng = random.Random(20_240_814)
    with budget(8, 600.0, "randomized constructions certify; 100 rewires hold"):
        # randomized valid parameters for every family; the constructors
        # raise CertificationError themselves if any verifier disagrees
        for _ in range(6):
            sigma = rng.choice((3, 4, 5))
            k = rng.choice((2, 3))
            ell = rng.randint(1, 3)
            result = construct_l_orthogonal_de_bruijn(sigma, k, ell)
            assert all(r.holds for r in result.certificate)
        for _ in range(4):
            sigma = rng.choice((4, 5))
            ell = rng.randint(1, 2)
            result = construct_l_orthogonal_kautz(sigma, 2, ell)
            assert all(r.holds for r in result.certificate)
        for _ in range(3):
            c, b = rng.choice(((2, 2), (2, 6), (3, 2), (2, 4), (3, 3)))
            result = construct_orthogonal_balanced_de_bruijn(c, b, 2)
            assert all(r.holds for r in result.certificate)
        for _ in range(3):
            c, b = rng.randint(1, 2), rng.randint(1, 2)
            result = construct_orthogonal_balanced_kautz(c, b, 2)
            assert all(r.holds for r in result.certificate)
        for _ in range(3):
            k = rng.randint(2, 4)
            w = rng.randint(1, k)
            result = construct_fixed_weight_orthogonal_db(DNA, k, w)
            assert all(r.holds for r in result.certificate)
        for band in ((0, 2), (1, 2), (1, 3)):
            result = construct_fixed_weight_kautz_orthogonal(DNA, 3, *band)
            assert all(r.holds for r in result.certificate)

        # 100 randomized (graph, vertex, circuit) rewiring triples
        failures = 0
        for trial in range(100):
            sigma = rng.choice((3, 4, 5))
            graph = build_de_bruijn_graph(sigma, 2)
            circuit = find_eulerian_circuit(graph)
            # random pre-scrambling so the triple is not always the base case
            for _ in range(rng.randint(0, 2)):
                circuit = rewire(rng.randrange(graph.num_vertices), circuit)
            vertex = rng.randrange(graph.num_vertices)
            use_given = sigma >= 4 and rng.random() < 0.5
            if use_given:
                base = find_eulerian_circuit(graph)
                rewired = rewire_given(vertex, circuit, [base])
                forbidden_pairs = wiring_of(vertex, base).items()
            else:
                rewired = rewire(vertex, circuit)
                forbidden_pairs = wiring_of(vertex, circuit).items()
            ok = wiring_of(vertex, rewired).items().isdisjoint(forbidden_pairs)
            ok = ok and all(
                wiring_of(u, rewired) == wiring_of(u, circuit)
                for u in range(graph.num_vertices)
                if u != vertex
            )
            ok = ok and is_de_bruijn(word_of(rewired), sigma=sigma, k=2).holds
            failures += 0 if ok else 1
        assert failures == 0
