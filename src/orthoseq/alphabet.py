"""Alphabets, words, and finite word languages.

Symbols are plain integers 0..sigma-1 everywhere inside the package; an
:class:`Alphabet` only supplies the printable token for each symbol and the
optional "weighted" subset W used by the fixed-weight families.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ParameterOutOfRange

_DIGITS36 = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Alphabet:
    """An ordered alphabet with an optional weighted symbol subset."""

    tokens: tuple[str, ...]
    weighted: frozenset[int] = frozenset()

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ParameterOutOfRange("alphabet tokens must be distinct")
        if not self.tokens:
            raise ParameterOutOfRange("alphabet must be nonempty")
        # parse splits words at whitespace: an empty token, or one holding any, would not come back
        if any(not isinstance(t, str) or t.split() != [t] for t in self.tokens):
            raise ParameterOutOfRange("alphabet tokens must be nonempty strings without whitespace")
        for i in self.weighted:  # symbol indices: a token, a float or a bool is none
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < len(self.tokens):
                raise ParameterOutOfRange(f"weighted symbol {i!r} not in 0..{self.sigma - 1}")
        # fixed per alphabet, so render and parse agree on every word
        object.__setattr__(self, "_separator", "" if all(len(t) == 1 for t in self.tokens) else " ")

    @property
    def sigma(self) -> int:
        return len(self.tokens)

    @property
    def unweighted(self) -> frozenset[int]:
        return frozenset(range(self.sigma)) - self.weighted

    def render(self, entries: Iterable[int]) -> str:
        """Tokens run together if all are one character, else space-separated."""
        toks = tuple(map(self.tokens.__getitem__, entries))
        return self._separator.join(toks) if toks else "-"

    def render_many(self, words: Iterable[Iterable[int]]) -> Iterator[str]:
        """:meth:`render` over nonempty words, with no Python call per word."""
        return map(self._separator.join, map(map, itertools.repeat(self.tokens.__getitem__), words))

    def parse(self, text: str) -> tuple[int, ...]:
        """Inverse of :meth:`render`."""
        index = {t: i for i, t in enumerate(self.tokens)}
        parts = text.split() if self._separator else list(text.strip())
        try:
            return tuple(index[p] for p in parts)
        except KeyError as exc:
            raise ParameterOutOfRange(f"symbol {exc.args[0]!r} not in alphabet") from None


def default_alphabet(sigma: int, weighted: Iterable[int] = ()) -> Alphabet:
    """Digits 0-9 then a-z; supports sigma <= 36."""
    if not 1 <= sigma <= 36:
        raise ParameterOutOfRange(f"default alphabet supports 1..36 symbols, got {sigma}")
    return Alphabet(tuple(_DIGITS36[:sigma]), frozenset(weighted))


def dna_alphabet(weighted: Iterable[int] = (2, 3)) -> Alphabet:
    """A,T,C,G with W = {C,G} unless overridden."""
    return Alphabet(("A", "T", "C", "G"), frozenset(weighted))


@dataclass(frozen=True)
class Word:
    """A word over integer symbols, linear or circular.

    Circular words are rotation-equivalent; :meth:`canonical` picks the least
    rotation so sets of circular words compare deterministically.
    """

    entries: tuple[int, ...]
    circular: bool = False

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def rotate(self, offset: int) -> "Word":
        if not self.circular or not self.entries:
            raise ParameterOutOfRange("only nonempty circular words rotate")
        off = offset % len(self.entries)
        return Word(self.entries[off:] + self.entries[:off], circular=True)

    def canonical(self) -> "Word":
        """The least rotation, in O(n) by Booth's algorithm (IPL 10, 1980)."""
        if not self.circular:
            return self
        doubled = self.entries + self.entries
        fail = [-1] * len(doubled)
        k = 0  # start of the least rotation seen so far
        for j in range(1, len(doubled)):
            c = doubled[j]
            i = fail[j - k - 1]
            while i != -1 and c != doubled[k + i + 1]:
                if c < doubled[k + i + 1]:
                    k = j - i - 1
                i = fail[i]
            if i == -1 and c != doubled[k]:
                if c < doubled[k]:
                    k = j
                fail[j - k] = -1
            else:
                fail[j - k] = i + 1
        return Word(doubled[k : k + len(self.entries)], circular=True)

    def render(self, alphabet: Alphabet) -> str:
        return alphabet.render(self.entries)


def as_entries(word) -> tuple[int, ...]:
    """Accept a Word or any symbol sequence and return a plain tuple."""
    if isinstance(word, Word):
        return word.entries
    return tuple(word)


@dataclass(frozen=True)
class LanguageSpec:
    """Description of a finite language of fixed-length words.

    kind: "full" (all words), "kautz" (no two adjacent equal symbols), or
    either combined with a weight band [min_weight, max_weight] counted over
    the alphabet's weighted subset.
    """

    kind: str
    length: int
    min_weight: Optional[int] = None
    max_weight: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("full", "kautz"):
            raise ParameterOutOfRange(f"unknown language kind {self.kind!r}")
        if self.length < 1:
            raise ParameterOutOfRange("language word length must be >= 1")
        if (self.min_weight is None) != (self.max_weight is None):
            raise ParameterOutOfRange("weight band needs both endpoints")
        if self.min_weight is not None and not 0 <= self.min_weight <= self.max_weight:
            raise ParameterOutOfRange("weight band must satisfy 0 <= min <= max")

    @property
    def banded(self) -> bool:
        return self.min_weight is not None


def language_ids(spec: LanguageSpec, alphabet: Alphabet) -> list[int]:
    """The base-sigma values of the language's words, ascending (the words'
    lexicographic order), by prefix extension: each prefix carries its weight
    and is kept only while the symbols still to come can end it in the band."""
    sigma, kautz = alphabet.sigma, spec.kind == "kautz"
    lo, hi = (spec.min_weight, spec.max_weight) if spec.banded else (0, spec.length)
    weight = [int(c in alphabet.weighted) for c in range(sigma)]
    left = spec.length - 1  # symbols still to come after the current one
    level = [(c, weight[c]) for c in range(sigma) if lo - left <= weight[c] <= hi]
    for left in reversed(range(left)):
        level = [(i * sigma + c, x + weight[c]) for i, x in level for c in range(sigma)
                 if lo - left <= x + weight[c] <= hi and not (kautz and c == i % sigma)]
    return [i for i, _ in level]


def words_of_ids(ids: Sequence[int], sigma: int, k: int) -> list[tuple[int, ...]]:
    """The k-symbol words whose base-sigma values are `ids`, in that order."""
    digits = (map(operator.mod, map(operator.floordiv, ids, itertools.repeat(sigma**e)),
                  itertools.repeat(sigma)) for e in reversed(range(k)))
    return list(zip(*digits)) or [()] * len(ids)  # zip() of no digits gives no words


def expand_language(spec: LanguageSpec, alphabet: Alphabet) -> list[Word]:
    """Materialize the language as a lexicographically sorted list of words."""
    return list(map(Word, words_of_ids(language_ids(spec, alphabet), alphabet.sigma, spec.length)))
