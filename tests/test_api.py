"""The public surface of the package, pinned name by name.

Adding or removing a top-level export shows here as a one-line diff.
"""

from __future__ import annotations

import pytest

import orthoseq
from orthoseq.errors import ParameterOutOfRange

PUBLIC = [
    "Alphabet",
    "CertificationError",
    "Circuit",
    "ConstructionResult",
    "DegreeMismatch",
    "DirectedMultigraph",
    "GuardExceeded",
    "InsufficientDegree",
    "LanguageSpec",
    "NotConnected",
    "NotCoprime",
    "NotPrimePower",
    "OrthogonalCollectionRequest",
    "OrthoseqError",
    "ParameterOutOfRange",
    "SearchExhausted",
    "TooManyForbidden",
    "UnsupportedCase",
    "VerificationReport",
    "Word",
    "alphabet",
    "are_arc_disjoint",
    "are_compatible",
    "build_de_bruijn_graph",
    "build_kautz_graph",
    "build_language_graph",
    "build_restricted_graph",
    "circuit_to_word",
    "circuits",
    "construct",
    "construct_fixed_weight_kautz_orthogonal",
    "construct_fixed_weight_orthogonal_db",
    "construct_l_orthogonal_de_bruijn",
    "construct_l_orthogonal_kautz",
    "construct_orthogonal_balanced_de_bruijn",
    "construct_orthogonal_balanced_kautz",
    "constructions",
    "default_alphabet",
    "dna_alphabet",
    "enumerate_db_words",
    "errors",
    "exact_max_orthogonal",
    "expand_language",
    "find_eulerian_circuit",
    "graphs",
    "hamiltonian_from_eulerian",
    "is_b_balanced",
    "is_b_balanced_kautz",
    "is_b_circuit",
    "is_de_bruijn",
    "is_fixed_weight_db",
    "is_kautz_word",
    "is_l_orthogonal",
    "is_self_orthogonal",
    "rewire_vertex_set",
    "verify",
    "word_to_circuit",
]


def test_public_api_is_pinned():
    assert sorted(orthoseq.__all__) == PUBLIC


def test_render_and_parse_are_inverse_on_mixed_token_lengths():
    # the separator is fixed per alphabet: one multi-character token spaces every word
    alphabet = orthoseq.Alphabet(("A", "BB", "C"))
    for word in [(0, 0), (0, 1, 2), (2,)]:
        assert alphabet.parse(alphabet.render(word)) == word
    assert alphabet.render((0, 2)) == "A C"
    assert alphabet.render(()) == "-"
    assert orthoseq.dna_alphabet().render((0, 2)) == "AC"


@pytest.mark.parametrize("tokens", [("", "A"), ("A", "B C"), ("A", " "), ("A\t", "B"), ("A", 1)])
def test_tokens_must_survive_render_and_parse(tokens):
    # parse splits a word at whitespace: with ("", "A") the word (0, 1, 0)
    # renders as " A " and would read back as (1,)
    with pytest.raises(ParameterOutOfRange, match="nonempty strings without whitespace"):
        orthoseq.Alphabet(tokens)


@pytest.mark.parametrize("weighted", [{"C"}, {1.5}, {2.0}, {True}, {4}, {-1}])
def test_weighted_entries_must_be_symbol_indices(weighted):
    # a token, a float or a bool is no symbol index: {1.5} would otherwise give
    # a weighted class that holds no symbol, and {True} would stand for {1}
    with pytest.raises(ParameterOutOfRange):
        orthoseq.Alphabet(("A", "T", "C", "G"), frozenset(weighted))
    assert orthoseq.Alphabet(("A", "T", "C", "G"), frozenset({0, 3})).weighted == {0, 3}
