"""Independent brute-force verification of constructed sequences.

Everything here works by counting the windows of circular words (read off by
zipping shifted copies of the word), or by exhaustive search over small
instances.  It deliberately shares no traversal logic with the construction
side: a certificate produced by this module is evidence that a construction
is right, not that it agrees with itself.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .alphabet import Word, as_entries
from .errors import GuardExceeded, ParameterOutOfRange


@dataclass
class VerificationReport:
    """Outcome of one checked property.

    witness is set exactly when the property fails and names the offending
    window, arc, or vertex; counts carries the window histogram when one was
    computed.
    """

    property: str
    holds: bool
    witness: Optional[object] = None
    counts: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.holds

    def to_json_dict(self, alphabet=None) -> dict:
        def render(obj):
            if alphabet is not None and isinstance(obj, tuple) and all(
                isinstance(x, int) for x in obj
            ):
                return alphabet.render(obj)
            if isinstance(obj, tuple):
                return ",".join(str(render(x)) for x in obj)
            return obj

        out = {"property": self.property, "holds": self.holds}
        if self.witness is not None:
            out["witness"] = render(self.witness)
        if self.counts is not None:
            keys = list(self.counts)
            # windows: nonempty tuples of ints, by exact type, with one scan of the symbols
            windows = set(map(type, keys)) <= {tuple} and all(keys) and set(
                map(type, itertools.chain.from_iterable(keys))
            ) <= {int}
            try:  # windows over symbols 0..255 sort as their bytes, in tuple order
                keys.sort(key=bytes if windows else None)
            except ValueError:  # a symbol past a byte
                keys.sort()
            if windows and alphabet is not None:  # render at C speed
                names = alphabet.render_many(keys)
            else:
                names = (str(render(k)) for k in keys)
            out["counts"] = dict(zip(names, map(self.counts.__getitem__, keys)))
        return out


def _require(condition: bool, message: str):
    if not condition:
        raise ParameterOutOfRange(message)


# ----------------------------------------------------------------------
# window counting


def circular_window_counts(word, n: int) -> Counter:
    """Histogram of the length-n windows of a circular word.

    Windows longer than the word wrap as often as needed, so short periodic
    words (for example sub-alphabet coverings of length 2) still read out.
    """
    return Counter(_windows(as_entries(word), n))


def _windows(entries: tuple, n: int):
    """The length-n windows of a circular word, in order, as one zip over n
    shifted copies of it."""
    _require(n >= 1, "window length must be >= 1")
    _require(len(entries) >= 1, "empty word has no windows")
    size = len(entries)
    ext = entries * (1 + (n - 1 + size - 1) // size)
    return zip(*(ext[i : i + size] for i in range(n)))


def _first_window_violation(word, n: int, expected: dict) -> Optional[tuple]:
    """First window (in scan order) whose running count exceeds its target,
    or that is not in the expected support at all."""
    running: Counter = Counter()
    for w in _windows(as_entries(word), n):
        running[w] += 1
        if running[w] > expected.get(w, 0):
            return w
    return None


def _covering_report(word, n: int, expected: dict, prop: str,
                     counts: Optional[Counter] = None) -> VerificationReport:
    """Check that the n-windows of `word` (histogram `counts`, if known) hit
    each expected window the expected number of times and nothing else."""
    entries = as_entries(word)
    total = sum(expected.values())
    if counts is None:
        counts = circular_window_counts(entries, n) if entries else Counter()
    if len(entries) != total:
        return VerificationReport(
            prop, False, witness=("length", len(entries), "expected", total), counts=counts
        )
    if counts == expected:
        return VerificationReport(prop, True, counts=counts)
    witness = _first_window_violation(entries, n, expected)
    if witness is None:  # some expected window is missing
        witness = next(w for w, c in sorted(expected.items()) if counts.get(w, 0) < c)
    return VerificationReport(prop, False, witness=witness, counts=counts)


def _language_report(word, sigma: int, k: int, b: int, kautz: bool,
                     prop: str) -> VerificationReport:
    """Every k-word over range(sigma), adjacent-distinct ones only when
    `kautz`, appears exactly b times among the k-windows of `word`.  By
    pigeonhole a word passes at once if it has b*|L| windows, |L| distinct and
    none more than b times, all in L; any other word takes the expected-dict
    path, which names the witness."""
    entries = as_entries(word)
    counts = circular_window_counts(entries, k) if entries else Counter()
    size = sigma * (sigma - 1) ** (k - 1) if kautz else sigma**k
    if (
        len(entries) == b * size
        and len(counts) == size
        and max(counts.values(), default=0) <= b
        and set(entries).issubset(range(sigma))
        and not (kautz and any(map(operator.eq, entries, entries[1:] + entries[:1])))
    ):
        return VerificationReport(prop, True, counts=counts)
    words = [()]  # the language, generated here rather than taken from the construction side
    for _ in range(k):
        words = [w + (c,) for w in words for c in range(sigma) if not (kautz and w and c == w[-1])]
    return _covering_report(entries, k, dict.fromkeys(words, b), prop, counts)


# ----------------------------------------------------------------------
# sequence predicates


def is_de_bruijn(word, sigma: int, k: int) -> VerificationReport:
    """Every k-word over the sigma symbols appears exactly once."""
    return _language_report(word, sigma, k, 1, False, f"de_bruijn({sigma},{k})")


def is_b_balanced(word, sigma: int, k: int, b: int) -> VerificationReport:
    """Every k-word appears exactly b times."""
    _require(b >= 1, "b must be >= 1")
    return _language_report(word, sigma, k, b, False, f"balanced({sigma},{k},b={b})")


def is_kautz_word(word, sigma: int, k: int) -> VerificationReport:
    """Every adjacent-distinct k-word appears exactly once (circularly)."""
    return _language_report(word, sigma, k, 1, True, f"kautz({sigma},{k})")


def is_b_balanced_kautz(word, sigma: int, k: int, b: int) -> VerificationReport:
    _require(b >= 1, "b must be >= 1")
    return _language_report(word, sigma, k, b, True, f"kautz_balanced({sigma},{k},b={b})")


def is_fixed_weight_db(word, language: Iterable) -> VerificationReport:
    """Every word of the (materialized) language appears exactly once."""
    words = list(map(as_entries, language))
    _require(bool(words), "language is empty")
    k = len(words[0])
    _require(all(len(w) == k for w in words), "language mixes word lengths")
    expected = dict.fromkeys(words, 1)
    _require(len(expected) == len(words), "language contains duplicates")
    return _covering_report(word, k, expected, f"language_db(k={k},|L|={len(words)})")


def is_self_orthogonal(word, k: int) -> VerificationReport:
    """No repeated (k+1)-window within the word itself."""
    counts = circular_window_counts(word, k + 1)
    if max(counts.values()) > 1:
        witness = _first_window_violation(word, k + 1, dict.fromkeys(counts, 1))
        return VerificationReport(
            f"self_orthogonal(k={k})", False, witness=witness, counts=counts
        )
    return VerificationReport(f"self_orthogonal(k={k})", True, counts=counts)


def is_l_orthogonal(collection: Sequence, k: int, ell: int) -> VerificationReport:
    """Across the whole collection, every (k+1)-window appears <= ell times."""
    _require(ell >= 1, "ell must be >= 1")
    total = Counter(
        itertools.chain.from_iterable(_windows(as_entries(word), k + 1) for word in collection)
    )
    prop = f"l_orthogonal(k={k},ell={ell},n={len(collection)})"
    if max(total.values(), default=0) > ell:
        bad = min(w for w, c in total.items() if c > ell)
        return VerificationReport(prop, False, witness=bad, counts=total)
    return VerificationReport(prop, True, counts=total)


# ----------------------------------------------------------------------
# circuit-level predicates (wiring route, independent of the window route)


def _check_same_graph(circuits: Sequence) -> None:
    _require(bool(circuits), "need at least one circuit")
    g0 = circuits[0].graph
    _require(
        all(c.graph is g0 or c.graph.signature == g0.signature for c in circuits),
        "circuits live on different graphs",
    )


def are_compatible(circuits: Sequence, ell: int = 1) -> VerificationReport:
    """Wirings pairwise edge-disjoint at every vertex (or, with ell > 1, no
    in/out pair used more than ell times across the collection)."""
    _check_same_graph(circuits)
    # an (in, out) arc pair fixes its vertex, the head of the in-arc
    use = Counter(
        itertools.chain.from_iterable(
            zip(c.arc_seq, c.arc_seq[1:] + c.arc_seq[:1]) for c in circuits
        )
    )
    prop = f"compatible(n={len(circuits)},ell={ell})"
    if max(use.values()) > ell:
        g = circuits[0].graph
        bad = sorted(
            ((g.heads[a_in], a_in, a_out), cnt)
            for (a_in, a_out), cnt in use.items()
            if cnt > ell
        )
        (vertex, a_in, a_out), cnt = bad[0]
        return VerificationReport(prop, False, witness=(g.vertex_labels[vertex], a_in, a_out, cnt))
    return VerificationReport(prop, True)


def are_arc_disjoint(walks: Sequence) -> VerificationReport:
    """No arc appears in two walks (or twice in one)."""
    _check_same_graph(walks)
    counts: Counter = Counter()
    for w in walks:
        counts.update(w.arc_seq)
    bad = sorted(a for a, c in counts.items() if c > 1)
    prop = f"arc_disjoint(n={len(walks)})"
    if bad:
        return VerificationReport(prop, False, witness=bad[0])
    return VerificationReport(prop, True)


def is_b_circuit(walk, graph, b: int) -> VerificationReport:
    """Closed walk using distinct arcs that visits every vertex exactly b
    times (counting departures)."""
    _require(b >= 1, "b must be >= 1")
    prop = f"b_circuit(b={b})"
    if walk.graph is not graph and walk.graph.signature != graph.signature:
        return VerificationReport(prop, False, witness="wrong graph")
    if len(set(walk.arc_seq)) != len(walk.arc_seq):
        dup = next(a for a, c in Counter(walk.arc_seq).items() if c > 1)
        return VerificationReport(prop, False, witness=("repeated arc", dup))
    visits = Counter(map(graph.tails.__getitem__, walk.arc_seq))
    for v in range(graph.num_vertices):
        if visits.get(v, 0) != b:
            return VerificationReport(
                prop,
                False,
                witness=(graph.vertex_labels[v], visits.get(v, 0)),
                counts={graph.vertex_labels[v]: c for v, c in visits.items()},
            )
    return VerificationReport(prop, True)


# ----------------------------------------------------------------------
# exhaustive enumeration (small instances only)


_ENUMERATE_NODES = 100_000_000  # node guard of `enumerate_db_words`: arcs placed


def enumerate_db_words(language: Iterable, max_results: int = 10_000) -> list[Word]:
    """All circular words containing each language word exactly once, up to
    rotation, in lexicographic order.

    Such a word is an Eulerian circuit of the prefix graph, whose vertices
    are the (k-1)-prefixes and where word w is an arc from w[:-1] to w[1:].
    A language with a word whose suffix is no prefix, a vertex whose in- and
    out-degree differ, or a word not reachable from the least word has no
    circuit and gives [] at once.  Otherwise the search backtracks over
    successions of words from the least one, trying successors in ascending
    order, on an explicit stack so the depth is not bounded by the recursion
    limit.  Each succession starts at the least word and its windows are
    distinct, so it is its own least rotation; symbols are appended in
    ascending order, so the results come out distinct and sorted.

    Last-exit rule (BEST theorem): in an Eulerian circuit from the start
    vertex s, the last arcs out of the other vertices form a tree directed
    into s.  So once a vertex other than s has one unused out-arc left, that
    arc is its last exit.  A move whose new last exit would close a cycle of
    last exits is refused; such a move starts a subtree that holds no
    circuit.  A vertex with one unused out-arc is left by that arc with no
    choice point, the only child the plain search would try.  So the
    results, their order and the count at which `max_results` raises are
    those of the plain search.  Past `max_results` results or
    `_ENUMERATE_NODES` arcs placed it raises GuardExceeded.
    """
    words = sorted(set(map(as_entries, language)))
    _require(bool(words), "language is empty")
    k = len(words[0])
    _require(all(len(w) == k for w in words), "language mixes word lengths")
    # word a is arc a, tails[a] -> heads[a]; the least word leaves vertex 0, the start
    ids: dict = {}
    tails = [ids.setdefault(w[:-1], len(ids)) for w in words]
    heads = [ids.get(w[1:], -1) for w in words]
    # a suffix that is no prefix (head -1) or an unbalanced vertex unbalances the multisets
    if Counter(heads) != Counter(tails):
        return []
    outs: list[list[int]] = [[] for _ in ids]
    for a, t in enumerate(tails):
        outs[t].append(a)
    # every vertex is a prefix, so every word is reached once every vertex is
    reached = [True] + [False] * (len(ids) - 1)
    todo = [0]
    while todo:
        for a in outs[todo.pop()]:
            if not reached[heads[a]]:
                reached[heads[a]] = True
                todo.append(heads[a])
    if not all(reached):
        return []
    # left[v]: v's unused out-arcs; last[v]: its last exit once left[v] is 1, else -1.
    # The seeded last exits form no cycle, since every vertex reaches the start.
    left = list(map(len, outs))
    last = [o[0] if len(o) == 1 else -1 for o in outs]
    used = [False] * len(words)
    first = [w[0] for w in words]
    path = [0] * len(words)  # path[:depth] is the walk so far
    depth = 0
    # choice frames: vertex, its untried out-arcs, depth before the choice
    stack = [(0, iter((0,)), 0)]
    results: list[Word] = []
    nodes = 0
    while stack:
        u, arcs, base = stack[-1]
        while depth > base:  # undo the frame's last choice and the moves it forced
            depth -= 1
            a = path[depth]
            used[a] = False
            left[tails[a]] += 1
        if left[u] == 2:  # u's last exit was fixed by the choice just undone
            last[u] = -1
        for a in arcs:
            if used[a]:
                continue
            if left[u] == 2:  # the other unused arc becomes u's last exit
                for b in outs[u]:
                    if b != a and not used[b]:
                        break
                if u:
                    x = heads[b]
                    while x and x != u and last[x] >= 0:
                        x = heads[last[x]]
                    if x == u:
                        continue
                last[u] = b
            break
        else:
            stack.pop()
            continue
        used[a] = True
        left[u] -= 1
        path[depth] = a
        depth += 1
        v = heads[a]
        while left[v] == 1:  # forced: v's last exit
            a = last[v]
            used[a] = True
            left[v] = 0
            path[depth] = a
            depth += 1
            v = heads[a]
        nodes += depth - base
        if nodes > _ENUMERATE_NODES:
            raise GuardExceeded(f"enumeration exceeded {_ENUMERATE_NODES} nodes")
        if left[v]:
            stack.append((v, iter(outs[v]), depth))
        elif depth == len(words):  # a balanced walk that used every arc is back at the start
            if len(results) >= max_results:
                raise GuardExceeded(f"more than {max_results} sequences")
            results.append(Word(tuple(map(first.__getitem__, path)), circular=True))
    return results


# ----------------------------------------------------------------------
# exact maximum collection size

_MAX_VERTICES = 100_000  # largest sigma^k `exact_max_orthogonal` searches
_SEARCH_NODES = 200_000_000  # node guard of `exact_max_orthogonal`


def exact_max_orthogonal(sigma: int, k: int, ell: int = 1) -> int:
    """Exact maximum size of an ell-orthogonal collection of (sigma,k)
    de Bruijn sequences (distinct up to rotation), by exhaustive search.

    Collections are explored in strictly increasing lexicographic order with a
    shared (k+1)-window capacity of ell.  The search stops as soon as a
    collection of size ell*(sigma-1) is found: every member must consume one
    of the ell*(sigma-1) available windows of the form (x,0,...,0) with x != 0
    (the window 0^k occurs exactly once per member, and its left extension
    cannot be 0), so no larger collection exists.  Full exhaustion is paid
    only when the maximum is strictly below that cutoff.  Past `_MAX_VERTICES`
    vertices or `_SEARCH_NODES` search nodes it raises GuardExceeded.
    """
    _require(sigma >= 2 and k >= 1 and ell >= 1, "bad parameters")
    n = sigma**k
    if n > _MAX_VERTICES:
        raise GuardExceeded(f"sigma^k = {n} exceeds guard {_MAX_VERTICES}")
    upper = ell * (sigma - 1)
    start = (0,) * k
    cap: dict = defaultdict(lambda: ell)
    nodes = 0
    best = 0

    # Both searches are generators: `yield g` calls the generator g, which
    # the loop at the end runs on an explicit stack, not Python's call stack.
    def collection_dfs(depth: int, bound: Optional[tuple]):
        """Extend the collection with cycles strictly above `bound`.
        Returns True once the cutoff is reached (propagates the early exit).
        """
        nonlocal best, nodes
        best = max(best, depth)
        if best >= upper:
            return True
        steps: list[int] = []
        visited = {start}

        def cycle_dfs(u, tight: bool):
            nonlocal nodes
            nodes += 1
            if nodes > _SEARCH_NODES:
                raise GuardExceeded(f"search exceeded {_SEARCH_NODES} nodes")
            if len(steps) == n - 1:
                # closure is forced: u -> start needs u = (x,0,..,0), symbol 0
                closing = u + (0,)
                # tight: equal to the bound, where strictly greater is needed
                if tight or u[1:] != start[:-1] or cap[closing] <= 0:
                    return False
                cap[closing] -= 1
                hit = yield collection_dfs(depth + 1, tuple(steps) + (0,))
                cap[closing] += 1
                return hit
            lo = bound[len(steps)] if tight else 0
            for c in range(lo, sigma):
                v = u[1:] + (c,)
                w = u + (c,)
                if v in visited or cap[w] <= 0:
                    continue
                visited.add(v)
                cap[w] -= 1
                steps.append(c)
                hit = yield cycle_dfs(v, tight and c == lo)
                steps.pop()
                cap[w] += 1
                visited.remove(v)
                if hit:
                    return True
            return False

        return (yield cycle_dfs(start, bound is not None))

    stack, sent = [collection_dfs(0, None)], None
    while stack:
        try:
            stack.append(stack[-1].send(sent))
            sent = None
        except StopIteration as done:
            stack.pop()
            sent = done.value
    return best
