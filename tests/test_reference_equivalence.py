"""The table-built graphs, the integer language expansion and the oracle's
exact-cover path against the per-word versions they replace.

Each reference is kept here as it was: graphs filtered out of all sigma^k
tuples and built by build_restricted_graph, languages filtered word by word,
and the oracle's expected-dict path, which counts every window against a dict
of all language words.  The fast versions must agree on every field.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from orthoseq.alphabet import Alphabet, LanguageSpec, default_alphabet, expand_language
from orthoseq.circuits import circuit_to_word, find_eulerian_circuit
from orthoseq.errors import ParameterOutOfRange
from orthoseq.graphs import (
    build_de_bruijn_graph,
    build_kautz_graph,
    build_language_graph,
    build_restricted_graph,
)
from orthoseq.verify import (
    _first_window_violation,
    _windows,
    circular_window_counts,
    is_b_balanced,
    is_b_balanced_kautz,
    is_de_bruijn,
    is_kautz_word,
    is_l_orthogonal,
)

GRAPH_FIELDS = ("vertex_labels", "vertex_index", "tails", "heads", "symbols", "in_arcs",
                "out_arcs", "signature", "kind", "sigma", "k")


def assert_same_graph(fast, reference):
    for field in GRAPH_FIELDS:
        assert getattr(fast, field) == getattr(reference, field), field
    # the arc lists against the arcs, by a plain loop
    outs = {v: [] for v in range(reference.num_vertices)}
    ins = {v: [] for v in range(reference.num_vertices)}
    for a, tail, head in zip(range(reference.num_arcs), reference.tails, reference.heads):
        assert reference.arc_word(a)[:-1] == reference.vertex_labels[tail]
        assert reference.arc_word(a)[1:] == reference.vertex_labels[head]
        outs[tail].append(a)
        ins[head].append(a)
    assert fast.out_arcs == tuple(map(tuple, outs.values()))
    assert fast.in_arcs == tuple(map(tuple, ins.values()))


def is_kautz(w) -> bool:
    return all(w[i] != w[i + 1] for i in range(len(w) - 1))


# ----------------------------------------------------------------------
# Kautz graphs


def reference_kautz_graph(sigma: int, k: int):
    words = [w for w in itertools.product(range(sigma), repeat=k) if is_kautz(w)]
    return build_restricted_graph(words, kind="kautz", sigma=sigma)


@given(sigma=st.integers(min_value=3, max_value=9), k=st.integers(min_value=2, max_value=5))
@settings(max_examples=20, deadline=None)
def test_kautz_graph_equals_the_filtered_build(sigma, k):
    assert_same_graph(build_kautz_graph(sigma, k), reference_kautz_graph(sigma, k))


# ----------------------------------------------------------------------
# languages and their graphs


def reference_language(spec: LanguageSpec, alphabet: Alphabet) -> list[tuple[int, ...]]:
    out = []
    for w in itertools.product(range(alphabet.sigma), repeat=spec.length):
        if spec.kind == "kautz" and not is_kautz(w):
            continue
        weight = sum(1 for s in w if s in alphabet.weighted)
        if spec.banded and not spec.min_weight <= weight <= spec.max_weight:
            continue
        out.append(w)
    return out


@st.composite
def weighted_alphabets(draw):
    """An alphabet of 2-6 symbols with a random weighted subset, and a word
    length 2-6 with at most 4096 words over it."""
    k = draw(st.integers(min_value=2, max_value=6))
    sigma = draw(st.integers(min_value=2, max_value=max(2, min(6, int(4096 ** (1 / k))))))
    weighted = draw(st.sets(st.integers(min_value=0, max_value=sigma - 1)))
    return default_alphabet(sigma, weighted), k


@given(case=weighted_alphabets(), kind=st.sampled_from(["full", "kautz"]))
@settings(max_examples=25, deadline=None)
def test_languages_and_their_graphs_equal_the_per_word_filter(case, kind):
    alphabet, k = case
    bands = [(None, None)] + [(lo, hi) for hi in range(k + 2) for lo in range(hi + 1)]
    for lo, hi in bands:
        spec = LanguageSpec(kind, k, min_weight=lo, max_weight=hi)
        reference = reference_language(spec, alphabet)
        assert [w.entries for w in expand_language(spec, alphabet)] == reference, (lo, hi)
        if not reference:
            with pytest.raises(ParameterOutOfRange, match="language is empty"):
                build_language_graph(spec, alphabet)
            continue
        assert_same_graph(
            build_language_graph(spec, alphabet),
            build_restricted_graph(reference, sigma=alphabet.sigma),
        )


@pytest.mark.parametrize("kind", ["full", "kautz"])
def test_one_symbol_languages_have_the_empty_word_as_their_vertex(kind):
    alphabet = default_alphabet(3, {1})
    for band in [(None, None), (0, 0), (1, 1)]:
        spec = LanguageSpec(kind, 1, *band)
        reference = reference_language(spec, alphabet)
        graph = build_language_graph(spec, alphabet)
        assert graph.vertex_labels == ((),)
        assert_same_graph(graph, build_restricted_graph(reference, sigma=3))


# ----------------------------------------------------------------------
# the oracle


def reference_covering(word, n: int, expected: dict, prop: str):
    """The expected-dict path: (holds, witness, counts)."""
    entries = tuple(word)
    total = sum(expected.values())
    counts = dict(circular_window_counts(entries, n)) if entries else {}
    if len(entries) != total:
        return False, ("length", len(entries), "expected", total), counts
    if counts == expected:
        return True, None, counts
    witness = _first_window_violation(entries, n, expected)
    if witness is None:
        witness = next(w for w, c in sorted(expected.items()) if counts.get(w, 0) < c)
    return False, witness, counts


def reference_l_orthogonal(collection, k: int, ell: int):
    total = Counter(itertools.chain.from_iterable(_windows(tuple(w), k + 1) for w in collection))
    bad = sorted(w for w, c in total.items() if c > ell)
    return (False, bad[0], dict(total)) if bad else (True, None, dict(total))


def outcome(report):
    return report.holds, report.witness, report.counts


@st.composite
def covering_words(draw, kautz: bool):
    """A de Bruijn or Kautz word, relabelled and rotated, repeated b times,
    and maybe with one symbol substituted (possibly by one out of range)."""
    sigma = draw(st.integers(min_value=3 if kautz else 2, max_value=5))
    k = draw(st.integers(min_value=1 if not kautz else 2, max_value=4 if sigma < 5 else 3))
    graph = build_kautz_graph(sigma, k) if kautz else build_de_bruijn_graph(sigma, k)
    word = circuit_to_word(find_eulerian_circuit(graph)).entries
    relabel = draw(st.permutations(range(sigma)))
    offset = draw(st.integers(min_value=0, max_value=len(word) - 1))
    word = tuple(relabel[s] for s in word[offset:] + word[:offset])
    b = draw(st.integers(min_value=1, max_value=3))
    word *= b
    if draw(st.booleans()):
        pos = draw(st.integers(min_value=0, max_value=len(word) - 1))
        symbol = draw(st.integers(min_value=0, max_value=sigma).filter(lambda s: s != word[pos]))
        word = word[:pos] + (symbol,) + word[pos + 1 :]
    return word, sigma, k, b


@given(case=covering_words(kautz=False))
@settings(max_examples=80, deadline=None)
def test_de_bruijn_oracle_equals_the_expected_dict_path(case):
    word, sigma, k, b = case
    words = itertools.product(range(sigma), repeat=k)
    ref = reference_covering(word, k, dict.fromkeys(words, b), "")
    assert outcome(is_b_balanced(word, sigma, k, b)) == ref
    if b == 1:
        assert outcome(is_de_bruijn(word, sigma, k)) == ref


@given(case=covering_words(kautz=True))
@example(case=((0, 0, 1, 1, 2, 2), 3, 2, 1))  # distinct windows, but 00 is no Kautz word
@settings(max_examples=80, deadline=None)
def test_kautz_oracle_equals_the_expected_dict_path(case):
    word, sigma, k, b = case
    words = [w for w in itertools.product(range(sigma), repeat=k) if is_kautz(w)]
    ref = reference_covering(word, k, dict.fromkeys(words, b), "")
    assert outcome(is_b_balanced_kautz(word, sigma, k, b)) == ref
    if b == 1:
        assert outcome(is_kautz_word(word, sigma, k)) == ref


@given(
    cases=st.lists(covering_words(kautz=False), min_size=1, max_size=3),
    ell=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_l_orthogonal_oracle_equals_the_full_scan(cases, ell):
    collection = [word for word, *_ in cases]
    k = min(k for _, _, k, _ in cases)
    assert outcome(is_l_orthogonal(collection, k, ell)) == reference_l_orthogonal(
        collection, k, ell
    )
