"""Directed multigraphs whose arcs are words.

Every graph family here follows the same scheme: vertices are labelled by
(k-1)-words, each arc represents one k-word and runs from the word's prefix to
its suffix, and the arc's symbol is the word's last entry.  Arc ids are dense
0..|A|-1 and assigned in lexicographic order of the underlying words, so all
downstream searches are deterministic.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from typing import Iterable, Optional, Sequence

from .alphabet import Alphabet, LanguageSpec, as_entries, language_ids, words_of_ids
from .errors import ParameterOutOfRange


class DirectedMultigraph:
    """Immutable-by-convention directed multigraph with dense arc ids: its
    vertex labels plus three tuples read by arc id, `tails` and `heads`
    (vertex ids) and `symbols` (ints, or pairs on a tensor product)."""

    # set only by build_de_bruijn_graph: every sigma^k word is an arc, and an
    # arc's id is its word's base-sigma value
    full_de_bruijn = False

    def __init__(
        self,
        vertex_labels: Sequence,
        arc_specs: Sequence[tuple],  # (tail_label, head_label, symbol)
        kind: str,
        sigma: Optional[int] = None,
        k: Optional[int] = None,
        base: Optional["DirectedMultigraph"] = None,
    ):
        self.vertex_labels: tuple = tuple(vertex_labels)
        if len(set(self.vertex_labels)) != len(self.vertex_labels):
            raise ParameterOutOfRange("duplicate vertex labels")
        self.vertex_index: dict = {lab: i for i, lab in enumerate(self.vertex_labels)}
        self.kind = kind
        self.sigma = sigma
        self.k = k
        self.base = base  # original graph for kind == "split"
        tails, heads, symbols = list(zip(*arc_specs)) or ((), (), ())
        index = self.vertex_index.__getitem__
        self._set_arcs(map(index, tails), map(index, heads), symbols)
        self._signature: Optional[str] = None

    def _set_arcs(self, tails: Iterable[int], heads: Iterable[int], symbols: Iterable,
                  adjacency: Optional[tuple] = None) -> None:
        """Arcs 0..m-1 from their tail and head vertex ids and their symbols;
        (out_arcs, in_arcs) unless given."""
        self.tails, self.heads, self.symbols = tuple(tails), tuple(heads), tuple(symbols)
        if adjacency is None:
            out_lists: list[list[int]] = [[] for _ in self.vertex_labels]
            in_lists: list[list[int]] = [[] for _ in self.vertex_labels]
            for aid, (tail, head) in enumerate(zip(self.tails, self.heads)):
                out_lists[tail].append(aid)
                in_lists[head].append(aid)
            adjacency = tuple(map(tuple, out_lists)), tuple(map(tuple, in_lists))
        self.out_arcs, self.in_arcs = adjacency  # tuples of arc-id tuples, ascending

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    @property
    def num_arcs(self) -> int:
        return len(self.tails)

    def out_degree(self, v: int) -> int:
        return len(self.out_arcs[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_arcs[v])

    def arc_word(self, arc_id: int) -> tuple[int, ...]:
        """The k-word an arc stands for (word graphs only)."""
        if self.kind == "split":
            return self.base.arc_word(arc_id)
        return tuple(self.vertex_labels[self.tails[arc_id]]) + (self.symbols[arc_id],)

    def arc_words(self) -> list[tuple]:
        """:meth:`arc_word` of every arc, by arc id."""
        if self.kind == "split":
            return self.base.arc_words()
        labels = list(map(tuple, self.vertex_labels))
        return list(map(operator.add, map(labels.__getitem__, self.tails), zip(self.symbols)))

    def arc_id_of_word(self, entries: Sequence) -> int:
        """Inverse of :meth:`arc_word`: the out-arc of the word's prefix vertex
        with its last entry as symbol (a split graph asks its base); KeyError for a non-word."""
        word = tuple(entries)
        if self.kind == "split":
            return self.base.arc_id_of_word(word)
        try:  # symbols compare by ==, as the prefix's vertex lookup does
            outs = self.out_arcs[self.vertex_index[word[:-1]]]
            return outs[list(map(self.symbols.__getitem__, outs)).index(word[-1])]
        except (KeyError, TypeError, IndexError, ValueError):  # no prefix or symbol, unhashable
            raise KeyError(word) from None

    @property
    def signature(self) -> str:
        """Stable content hash used when serializing circuits."""
        if self._signature is None:
            payload = json.dumps(
                {
                    "kind": self.kind,
                    "vertices": [repr(lab) for lab in self.vertex_labels],
                    "arcs": list(zip(self.tails, self.heads, map(repr, self.symbols))),
                },
                separators=(",", ":"),
            )
            import hashlib  # here, not at start-up: only serialization reads it
            self._signature = hashlib.sha256(payload.encode()).hexdigest()[:16]
        return self._signature

    def __repr__(self) -> str:
        return (
            f"<DirectedMultigraph {self.kind} |V|={self.num_vertices} "
            f"|A|={self.num_arcs}>"
        )

    # ------------------------------------------------------------------
    # export

    def render_vertex(self, v: int, alphabet: Optional[Alphabet] = None) -> str:
        lab = self.vertex_labels[v]
        if alphabet is not None and isinstance(lab, tuple) and all(
            isinstance(x, int) for x in lab
        ):
            return alphabet.render(lab)
        return str(lab)

    def to_dot(self, alphabet: Optional[Alphabet] = None, name: str = "G") -> str:
        lines = [f"digraph \"{name}\" {{"]
        for v in range(self.num_vertices):
            lines.append(f"  v{v} [label=\"{self.render_vertex(v, alphabet)}\"];")
        symbols = self.symbols
        if alphabet is not None:
            symbols = [alphabet.render((s,)) if isinstance(s, int) else s for s in symbols]
        lines += map("  v{} -> v{} [label=\"{}\"];".format, self.tails, self.heads, symbols)
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self, alphabet: Optional[Alphabet] = None) -> dict:
        return {
            "kind": self.kind,
            "sigma": self.sigma,
            "k": self.k,
            "signature": self.signature,
            "vertices": [
                {"id": v, "label": self.render_vertex(v, alphabet)}
                for v in range(self.num_vertices)
            ],
            "arcs": [
                {"id": a, "tail": t, "head": h, "symbol": s if isinstance(s, int) else list(s)}
                for a, t, h, s in zip(itertools.count(), self.tails, self.heads, self.symbols)
            ],
        }


# ----------------------------------------------------------------------
# builders


def build_restricted_graph(language: Iterable, kind: str = "restricted",
                           sigma: Optional[int] = None) -> DirectedMultigraph:
    """Graph of a fixed-length language: one arc per word, prefix -> suffix."""
    words = sorted(as_entries(w) for w in language)
    if not words:
        raise ParameterOutOfRange("language is empty")
    k = len(words[0])
    if any(len(w) != k for w in words):
        raise ParameterOutOfRange("language mixes word lengths")
    if len(set(words)) != len(words):
        raise ParameterOutOfRange("language contains duplicate words")
    labels = sorted({w[:-1] for w in words} | {w[1:] for w in words})
    arc_specs = [(w[:-1], w[1:], w[-1]) for w in words]
    return DirectedMultigraph(labels, arc_specs, kind=kind, sigma=sigma, k=k)


def build_de_bruijn_graph(sigma: int, k: int) -> DirectedMultigraph:
    """All k-words over sigma symbols; sigma^(k-1) vertices, sigma^k arcs."""
    if sigma < 2:
        raise ParameterOutOfRange(f"need sigma >= 2, got {sigma}")
    if k < 1:
        raise ParameterOutOfRange(f"need k >= 1, got {k}")
    labels = itertools.product(range(sigma), repeat=k - 1)
    g = DirectedMultigraph(labels, (), kind="de_bruijn", sigma=sigma, k=k)
    n = g.num_vertices
    # arc id = word value: tail = id // sigma (prefix), head = id mod n (suffix)
    tails = itertools.chain.from_iterable(map(itertools.repeat, range(n), itertools.repeat(sigma)))
    g._set_arcs(tails, tuple(range(n)) * sigma, tuple(range(sigma)) * n, (
        tuple(tuple(range(v * sigma, (v + 1) * sigma)) for v in range(n)),
        tuple(tuple(range(v, n * sigma, n)) for v in range(n)),
    ))
    g.full_de_bruijn = True
    return g


def build_kautz_graph(sigma: int, k: int) -> DirectedMultigraph:
    """k-words with no two adjacent equal symbols; needs sigma >= 3, k >= 2."""
    if sigma < 3:
        raise ParameterOutOfRange(f"Kautz graphs need sigma >= 3, got {sigma}")
    if k < 2:
        raise ParameterOutOfRange(f"Kautz graphs need k >= 2, got {k}")
    labels = [(c,) for c in range(sigma)]
    for _ in range(k - 2):  # prefix extension keeps the labels in lexicographic order
        labels = [w + (c,) for w in labels for c in range(sigma) if c != w[-1]]
    g = DirectedMultigraph(labels, (), kind="kautz", sigma=sigma, k=k)
    # arc v*d + j appends to vertex v the j-th symbol other than its last one
    d = sigma - 1
    others = [[c for c in range(sigma) if c != x] for x in range(sigma)]
    symbols = list(itertools.chain.from_iterable(
        map(others.__getitem__, map(operator.itemgetter(-1), labels))
    ))
    if k == 2:
        heads = symbols  # vertex (c,) has id c
    else:  # the d successors of w share the prefix w[1:], so their ids are consecutive
        starts = (g.vertex_index[w[1:] + (others[w[-1]][0],)] for w in labels)
        heads = list(itertools.chain.from_iterable(range(s, s + d) for s in starts))
    tails = list(map(operator.floordiv, range(len(symbols)), itertools.repeat(d)))
    # out-arcs v*d .. v*d+d-1; in-arcs: d-chunks of the arc ids stably sorted by head
    by_head = iter(sorted(range(len(heads)), key=heads.__getitem__))
    g._set_arcs(tails, heads, symbols,
                (tuple(zip(*[iter(range(len(symbols)))] * d)), tuple(zip(*[by_head] * d))))
    return g


def build_language_graph(spec: LanguageSpec, alphabet: Alphabet) -> DirectedMultigraph:
    """Restricted graph of a language spec, the graph build_restricted_graph
    gives on its expanded words, built on their base-sigma values: a word's
    prefix is its value // sigma and its suffix its value mod sigma^(k-1), and
    ascending values are the words in lexicographic order."""
    sigma, k = alphabet.sigma, spec.length
    ids = language_ids(spec, alphabet)
    if not ids:
        raise ParameterOutOfRange("language is empty")
    tails = list(map(operator.floordiv, ids, itertools.repeat(sigma)))
    heads = list(map(operator.mod, ids, itertools.repeat(sigma ** (k - 1))))
    vertices = sorted(set(tails).union(heads))
    g = DirectedMultigraph(words_of_ids(vertices, sigma, k - 1), (), kind="restricted",
                           sigma=sigma, k=k)
    index = dict(zip(vertices, range(len(vertices)))).__getitem__
    g._set_arcs(map(index, tails), map(index, heads),
                map(operator.mod, ids, itertools.repeat(sigma)))
    return g


# ----------------------------------------------------------------------
# tensor product and the digit map


def tensor_product(g1: DirectedMultigraph, g2: DirectedMultigraph) -> DirectedMultigraph:
    """Tensor product: vertices V1 x V2, one arc per pair of arcs.  Vertex
    (v1, v2) has id v1*|V2| + v2 and arc pair (a1, a2) id a1*|A2| + a2."""
    g = DirectedMultigraph(itertools.product(g1.vertex_labels, g2.vertex_labels), (),
                           kind="product")
    n2 = g2.num_vertices
    g._set_arcs([n2 * t1 + t2 for t1 in g1.tails for t2 in g2.tails],
                [n2 * h1 + h2 for h1 in g1.heads for h2 in g2.heads],
                itertools.product(g1.symbols, g2.symbols))
    g.factors = (g1, g2)
    return g


def mixed_radix_join(streams: Sequence[Sequence[int]], radices: Sequence[int]) -> tuple[int, ...]:
    """Join synchronized circular digit streams into one stream over the
    product alphabet; the first stream gives the most significant digit.

    Position t reads entry t mod len(stream) of every stream, over the lcm of
    the stream lengths: the product for coprime lengths (the index-synchronous
    pairing of the balanced construction), and a plain zip for words of equal
    length, where it is the digit map from the tensor product of the graphs
    over radices[0], radices[1], ... onto the graph over their product.
    """
    out = [0] * math.lcm(*map(len, streams))
    for s, r in zip(streams, radices):
        out = map(operator.add, map(operator.mul, out, itertools.repeat(r)), itertools.cycle(s))
    return tuple(out)
