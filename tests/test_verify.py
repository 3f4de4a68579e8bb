"""Oracle unit tests.

The verifiers are the ground truth for everything else in the package, so
they are pinned here against hand-checkable words: small de Bruijn and Kautz
sequences, balanced words with known repeated windows, and the DNA examples
used throughout the docs.  Counting is always brute force over circular
windows; nothing here consults the construction code.
"""

from __future__ import annotations

import ast
import itertools
import time
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orthoseq.verify as verify
from orthoseq.alphabet import (
    LanguageSpec,
    Word,
    as_entries,
    default_alphabet,
    dna_alphabet,
    expand_language,
)
from orthoseq.errors import GuardExceeded
from orthoseq.verify import (
    _require,
    circular_window_counts,
    enumerate_db_words,
    exact_max_orthogonal,
    is_b_balanced,
    is_b_balanced_kautz,
    is_de_bruijn,
    is_fixed_weight_db,
    is_kautz_word,
    is_l_orthogonal,
    is_self_orthogonal,
)

DNA = dna_alphabet()


def dna_word(text: str) -> tuple[int, ...]:
    return DNA.parse(text)


def digits(text: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in text)


def test_the_oracle_imports_nothing_from_the_construction_side():
    import orthoseq.verify

    tree = ast.parse(Path(orthoseq.verify.__file__).read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "orthoseq":
            package.add(node.module)
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names if a.name.split(".")[0] == "orthoseq")
    assert package == {"alphabet", "errors"}


# ----------------------------------------------------------------------
# window counting


def test_window_counts_cover_every_position():
    word = digits("012002211")
    counts = circular_window_counts(word, 3)
    assert sum(counts.values()) == len(word)
    assert counts[(0, 1, 2)] == 1
    assert counts[(1, 2, 0)] == 1


def test_window_counts_wrap_around():
    counts = circular_window_counts(digits("0011"), 2)
    # the circular word 0011 has windows 00, 01, 11, 10
    assert counts[(1, 0)] == 1
    assert counts[(0, 0)] == 1
    assert len(counts) == 4


# ----------------------------------------------------------------------
# de Bruijn oracle


def test_de_bruijn_accepts_known_word():
    report = is_de_bruijn(digits("012002211"), sigma=3, k=2)
    assert report.holds
    assert report.property.startswith("de_bruijn")


def test_de_bruijn_rejects_wrong_length():
    report = is_de_bruijn(digits("01200221"), sigma=3, k=2)
    assert not report.holds
    assert report.witness is not None


def test_de_bruijn_rejects_repeated_window():
    # swapping two symbols duplicates one 2-window and drops another
    report = is_de_bruijn(digits("012002112"), sigma=3, k=2)
    assert not report.holds


def test_de_bruijn_is_rotation_invariant():
    word = Word(digits("012002211"), circular=True)
    for offset in range(len(word)):
        assert is_de_bruijn(word.rotate(offset), sigma=3, k=2).holds


# ----------------------------------------------------------------------
# balance and self-orthogonality


def test_two_balanced_but_not_self_orthogonal():
    word = digits("000111222020212101")
    assert is_b_balanced(word, sigma=3, k=2, b=2).holds
    report = is_self_orthogonal(word, k=2)
    assert not report.holds
    assert report.witness == (2, 0, 2)


def test_self_orthogonal_two_balanced_word():
    word = digits("002211012001122021")
    assert is_b_balanced(word, sigma=3, k=2, b=2).holds
    assert is_self_orthogonal(word, k=2).holds


def test_balance_failure_reports_offending_window():
    report = is_b_balanced(digits("001122"), sigma=3, k=2, b=2)
    assert not report.holds
    assert report.witness is not None


# ----------------------------------------------------------------------
# orthogonality of collections


def test_known_family_is_two_orthogonal():
    family = [
        digits("012002211"),
        digits("012022110"),
        digits("011220210"),
        digits("011220021"),
    ]
    assert is_l_orthogonal(family, k=2, ell=2).holds
    # but it is not 1-orthogonal: four circuits exceed the ell=1 budget
    report = is_l_orthogonal(family, k=2, ell=1)
    assert not report.holds


def test_duplicated_member_breaks_orthogonality():
    word = digits("012002211")
    report = is_l_orthogonal([word, word], k=2, ell=1)
    assert not report.holds
    assert report.witness is not None


# ----------------------------------------------------------------------
# Kautz words


def test_dna_kautz_word():
    assert is_kautz_word(dna_word("ATCGAGCTGTAC"), sigma=4, k=2).holds


def test_kautz_rejects_adjacent_repeat():
    report = is_kautz_word(dna_word("AACGAGCTGTTC"), sigma=4, k=2)
    assert not report.holds


def test_dna_kautz_family_window_counts():
    family = [
        dna_word("ATCGAGCTGTAC"),
        dna_word("ACAGCTATGTCG"),
        dna_word("ACTATGCGTCAG"),
        dna_word("ACTGCGTAGATC"),
    ]
    for member in family:
        assert is_kautz_word(member, sigma=4, k=2).holds
    assert is_l_orthogonal(family, k=2, ell=2).holds
    totals: dict[tuple[int, ...], int] = {}
    for member in family:
        for window, n in circular_window_counts(member, 3).items():
            totals[window] = totals.get(window, 0) + n
    assert totals.get(dna_word("ATC"), 0) == 2
    assert totals.get(dna_word("GAG"), 0) == 1
    assert totals.get(dna_word("ATA"), 0) == 0


def test_balanced_kautz_oracle():
    # sigma=3, k=2: the twelve Kautz 2-words each appear twice
    word = digits("010201210212")
    report = is_b_balanced_kautz(word, sigma=3, k=2, b=2)
    assert report.holds == (circular_window_counts(word, 2).get((0, 1)) == 2)


# ----------------------------------------------------------------------
# fixed-weight language oracle


def test_fixed_weight_kautz_dna_word():
    from orthoseq.alphabet import LanguageSpec, expand_language

    language = expand_language(
        LanguageSpec("kautz", 3, min_weight=1, max_weight=2), DNA
    )
    word = dna_word("CAGATCATGACACTACGAGTAGCTCTGTCGTG")
    assert len(word) == len(language) == 32
    assert is_fixed_weight_db(word, language).holds


def test_fixed_weight_rejects_outside_language():
    from orthoseq.alphabet import LanguageSpec, expand_language

    language = expand_language(
        LanguageSpec("kautz", 3, min_weight=1, max_weight=2), DNA
    )
    # an all-A run leaves the language; the verifier must name the window
    report = is_fixed_weight_db(dna_word("A" * 32), language)
    assert not report.holds
    assert report.witness is not None


# ----------------------------------------------------------------------
# exhaustive enumeration and the exact maxima


def test_enumerate_counts():
    def language(sigma: int, k: int):
        return expand_language(LanguageSpec("full", k), default_alphabet(sigma))

    assert len(enumerate_db_words(language(2, 1))) == 1
    assert len(enumerate_db_words(language(2, 3))) == 2
    assert len(enumerate_db_words(language(3, 2))) == 24


def test_enumerated_words_pass_oracle():
    language = expand_language(LanguageSpec("full", 3), default_alphabet(2))
    for word in enumerate_db_words(language):
        assert is_de_bruijn(word, sigma=2, k=3).holds


def test_enumerate_respects_guard():
    language = expand_language(LanguageSpec("full", 2), default_alphabet(3))
    with pytest.raises(GuardExceeded):
        enumerate_db_words(language, max_results=5)
    language = expand_language(LanguageSpec("full", 5), default_alphabet(2))
    with pytest.raises(GuardExceeded):  # 2,048 coverings
        enumerate_db_words(language, max_results=100)


def canonicalize_and_sort(words: list) -> list:
    """The pass enumerate_db_words once ended with: each result at its least
    rotation (by the definition, the least of its rotations), deduplicated
    and sorted."""
    least = {min(w[i:] + w[:i] for i in range(len(w))) for w in map(tuple, words)}
    return [Word(e, circular=True) for e in sorted(least)]


ENUMERATED_LANGUAGES = (
    [("full", 2, k, None) for k in range(1, 6)]
    + [("full", 3, k, None) for k in (1, 2)]
    + [("kautz", 3, 2, None), ("kautz", 3, 3, None), ("kautz", 4, 2, None)]
    + [("full", 4, 3, (w, w)) for w in range(4)]  # wider DNA bands have over 10,000 coverings
)


def enumerated_language(kind, sigma, k, band) -> list:
    alphabet = DNA if band else default_alphabet(sigma)
    return expand_language(LanguageSpec(kind, k, *(band or (None, None))), alphabet)


@pytest.mark.parametrize("kind,sigma,k,band", ENUMERATED_LANGUAGES)
def test_enumerated_words_are_least_rotations_in_order(kind, sigma, k, band):
    language = enumerated_language(kind, sigma, k, band)
    found = enumerate_db_words(language)
    assert found == canonicalize_and_sort(found) == reference_enumerate_db_words(language)


def reference_enumerate_db_words(language, max_results: int = 10_000) -> list[Word]:
    """The plain backtracking search `enumerate_db_words` ran before the
    last-exit rule: every succession of words from the least one, with no
    pruning and no early exit on a language that has no circuit."""
    words = sorted(set(as_entries(w) for w in language))
    _require(bool(words), "language is empty")
    k = len(words[0])
    _require(all(len(w) == k for w in words), "language mixes word lengths")
    # words are handled by their index in `words`; successions start at word 0
    by_prefix: dict = defaultdict(list)
    for i, w in enumerate(words):
        by_prefix[w[:-1]].append(i)
    successors = [by_prefix.get(w[1:], []) for w in words]
    used = [False] * len(words)
    path: list[int] = []
    # stack[d] iterates the candidates for path[d]: the successors of path[d-1]
    stack = [iter([0])]
    results: list[Word] = []
    while stack:
        for v in stack[-1]:
            if not used[v]:
                break
        else:
            stack.pop()
            if path:
                used[path.pop()] = False
            continue
        if len(path) + 1 == len(words):
            if words[v][1:] == words[0][:-1]:
                if len(results) >= max_results:
                    raise GuardExceeded(f"more than {max_results} sequences")
                results.append(Word(tuple(words[i][0] for i in [*path, v]), circular=True))
            continue
        used[v] = True
        path.append(v)
        stack.append(iter(successors[v]))
    return results


def enumeration_outcome(enumerate_fn, language, max_results):
    try:
        return enumerate_fn(language, max_results=max_results)
    except GuardExceeded as exc:
        return str(exc)


# word graphs small enough for the reference to exhaust every trail from the start
BALANCED_GRAPHS = [(2, k) for k in range(1, 6)] + [(3, 1), (3, 2), (4, 1)]
UNBALANCED_GRAPHS = [(2, k) for k in range(1, 5)] + [(3, 1), (3, 2), (4, 1)]


@st.composite
def balanced_languages(draw):
    """Unions of arc-disjoint closed trails in a small de Bruijn graph: every
    vertex has in-degree equal to out-degree, and the union may fall into
    several components."""
    sigma, k = draw(st.sampled_from(BALANCED_GRAPHS))
    rng = draw(st.randoms(use_true_random=False))
    unused = sorted(itertools.product(range(sigma), repeat=k))
    language = []
    for _ in range(draw(st.integers(1, 3))):
        if not unused:
            break
        start = vertex = rng.choice(unused)[:-1]
        while True:
            # the unused arcs stay balanced, so a trail can stop only at its start
            out = [w for w in unused if w[:-1] == vertex]
            if vertex == start and language and (not out or rng.random() < 0.2):
                break
            word = rng.choice(out)
            unused.remove(word)
            language.append(word)
            vertex = word[1:]
    return language


@st.composite
def unbalanced_languages(draw):
    sigma, k = draw(st.sampled_from(UNBALANCED_GRAPHS))
    words = list(itertools.product(range(sigma), repeat=k))
    return draw(st.lists(st.sampled_from(words), min_size=1, unique=True))


@given(
    language=st.one_of(
        st.sampled_from(ENUMERATED_LANGUAGES).map(lambda row: enumerated_language(*row)),
        balanced_languages(),
        unbalanced_languages(),
    ),
    max_results=st.sampled_from([1, 5, 100, 10_000]),
)
@settings(max_examples=120, deadline=None)
def test_enumeration_matches_the_plain_search(language, max_results):
    """Same results in the same order, and GuardExceeded at the same count."""
    assert enumeration_outcome(enumerate_db_words, language, max_results) == enumeration_outcome(
        reference_enumerate_db_words, language, max_results
    )


def test_a_language_without_a_circuit_ends_at_once():
    """The plain search tries every succession of words from the least one
    before it gives up: on the first language that is over 60 s, and the
    second holds all 2^26 binary de Bruijn sequences of order 6."""
    full = list(itertools.product(range(2), repeat=6))
    unbalanced = [w for w in full if w != (1, 0, 1, 0, 1, 0)]
    two_components = full + [(2,) * 6]  # a loop at the vertex 22222, reached from no binary word
    for language in (unbalanced, two_components):
        start = time.perf_counter()
        assert enumerate_db_words(language) == []
        assert time.perf_counter() - start < 1.0


def test_enumerate_node_guard(monkeypatch):
    monkeypatch.setattr(verify, "_ENUMERATE_NODES", 10)
    with pytest.raises(GuardExceeded, match="enumeration exceeded 10 nodes"):
        enumerate_db_words(itertools.product(range(2), repeat=4))


def test_exact_max_orthogonal_runs_past_the_recursion_limit():
    # one 2047-step cycle search: deeper than Python's default recursion limit
    assert exact_max_orthogonal(2, 11) == 1


def test_exact_max_orthogonal_small_table():
    assert exact_max_orthogonal(2, 3, 1) == 1
    assert exact_max_orthogonal(3, 2, 1) == 2
    assert exact_max_orthogonal(4, 2, 1) == 3
    assert exact_max_orthogonal(2, 3, 2) == 2
    # ell=2 at sigma=3 meets the upper bound ell*(sigma-1)
    assert exact_max_orthogonal(3, 2, 2) == 4


def test_exact_max_guard(monkeypatch):
    with pytest.raises(GuardExceeded, match="exceeds guard"):
        exact_max_orthogonal(4, 9)  # 4^9 vertices, past the default guard
    monkeypatch.setattr(verify, "_MAX_VERTICES", 10)
    with pytest.raises(GuardExceeded, match="exceeds guard 10"):
        exact_max_orthogonal(10, 5, 1)


def test_exact_max_node_guard(monkeypatch):
    monkeypatch.setattr(verify, "_SEARCH_NODES", 10)
    with pytest.raises(GuardExceeded, match="search exceeded 10 nodes"):
        exact_max_orthogonal(3, 2, 1)
