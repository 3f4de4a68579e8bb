"""Constructions of orthogonal, balanced, and fixed-weight sequence families.

Each public construct_* function builds its collection by graph surgery
(rewiring, vertex splitting, cycle combination, stream composition) and then
certifies the result with the independent window-counting oracle before
returning it.  A failed certificate raises CertificationError: no uncertified
object ever leaves this module.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .alphabet import Alphabet, LanguageSpec, Word, default_alphabet
from .circuits import (
    Circuit,
    circuit_to_word,
    find_eulerian_circuit,
    hamiltonian_from_eulerian,
    rewire_vertex_set,
    word_to_circuit,
)
from .errors import (
    CertificationError,
    NotCoprime,
    NotPrimePower,
    ParameterOutOfRange,
    UnsupportedCase,
)
from .graphs import (
    DirectedMultigraph,
    build_de_bruijn_graph,
    build_kautz_graph,
    build_language_graph,
    mixed_radix_join,
    tensor_product,
)
from . import verify


@dataclass(frozen=True)
class OrthogonalCollectionRequest:
    """Parameters of one collection request, as the CLI hands them over."""

    family: str  # the name of a row of FAMILIES
    sigma: Optional[int] = None
    k: int = 2
    ell: int = 1
    c: Optional[int] = None
    b: Optional[int] = None
    weight: Optional[int] = None
    weight_band: Optional[tuple[int, int]] = None
    alphabet: Optional[Alphabet] = None


@dataclass
class ConstructionResult:
    """A certified collection: words, their circuits, and the certificate."""

    family: str
    parameters: dict
    alphabet: Alphabet
    sigma: int
    k: int
    words: list[Word]
    circuits: list[Circuit]
    certificate: list[verify.VerificationReport]
    provenance: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _certified(
    family: str, parameters: dict, alphabet: Alphabet, k: int, words: list[Word],
    circuits: list[Circuit], reports: Sequence[verify.VerificationReport],
    provenance: list[str], **info,
) -> ConstructionResult:
    """The only place a ConstructionResult is built: every report must hold."""
    for r in reports:
        if not r.holds:
            raise CertificationError(f"{r.property} failed, witness {r.witness!r}")
    info["count"] = len(words)
    return ConstructionResult(
        family=family,
        parameters=parameters,
        alphabet=alphabet,
        sigma=alphabet.sigma,
        k=k,
        words=words,
        circuits=circuits,
        certificate=list(reports),
        provenance=provenance,
        info=info,
    )


def _fit_alphabet(alphabet: Optional[Alphabet], sigma: int) -> Alphabet:
    if alphabet is None:
        return default_alphabet(sigma)
    if alphabet.sigma != sigma:
        raise ParameterOutOfRange(
            f"alphabet has {alphabet.sigma} symbols, construction needs {sigma}"
        )
    return alphabet


# ----------------------------------------------------------------------
# small number-theory helpers


def factorize(n: int) -> dict[int, int]:
    if n < 2:
        raise ParameterOutOfRange(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime_power(n: int) -> bool:
    return n >= 2 and len(factorize(n)) == 1


def smallest_prime_power_geq(n: int) -> int:
    m = max(n, 2)
    while not is_prime_power(m):
        m += 1
    return m


# ----------------------------------------------------------------------
# vertex partition and the rewiring recursion


def partition_vertices(graph: DirectedMultigraph, ell: int) -> list[list[int]]:
    """Split the vertex ids into ell lexicographic blocks of near-equal size;
    earlier blocks take the smaller size when it does not divide evenly."""
    n = graph.num_vertices
    if not 1 <= ell <= n:
        raise ParameterOutOfRange(f"need 1 <= ell <= {n}, got {ell}")
    q, r = divmod(n, ell)
    blocks = []
    pos = 0
    for i in range(ell):
        size = q + (1 if i >= ell - r else 0)
        blocks.append(list(range(pos, pos + size)))
        pos += size
    return blocks


def _rewiring_family(graph: DirectedMultigraph, ell: int) -> tuple[list[Circuit], list[str]]:
    """The ell x K grid of circuits built by group rewiring, K = floor(d/2)
    for the degree d of the regular graph, and K = 2 at d = 3.

    Row 1 starts from the Eulerian circuit; each step rewires one vertex
    block of the previous circuit, avoiding the wirings of earlier rows'
    first columns when d >= 4 (at d = 3 the budget of floor(d/2) - 1
    forbidden circuits is 0).  The last row is conditioned on rows 2..K so
    the count K stays within the degree budget.
    """
    d = graph.in_degree(0)
    big_k, conditioned = (2, False) if d == 3 else (d // 2, True)
    fam: dict[tuple[int, int], Circuit] = {}
    prov: list[str] = []
    groups = partition_vertices(graph, ell)
    fam[(1, 1)] = find_eulerian_circuit(graph)
    prov.append("C[1,1]: Eulerian circuit")

    def emit(i: int, j: int, group_idx: int, base: tuple[int, int], forbidden_cols):
        forb = [fam[(m, 1)] for m in forbidden_cols] if conditioned else None
        fam[(i, j)] = rewire_vertex_set(groups[group_idx], fam[base], forb)
        given = f" given columns {list(forbidden_cols)}" if conditioned else ""
        prov.append(f"C[{i},{j}]: rewired block {group_idx + 1} of C[{base[0]},{base[1]}]{given}")

    for j in range(2, ell + 1):
        emit(1, j, j - 2, (1, j - 1), range(1, 2))
    for i in range(2, big_k + 1):
        emit(i, 1, ell - 1, (i - 1, ell), range(1, i))
        for j in range(2, ell + 1):
            cols = range(1, i + 1) if i < big_k else range(2, big_k + 1)
            emit(i, j, j - 2, (i, j - 1), cols)
    ordered = [fam[(i, j)] for i in range(1, big_k + 1) for j in range(1, ell + 1)]
    return ordered, prov


# ----------------------------------------------------------------------
# orthogonal de Bruijn / Kautz families


def construct_l_orthogonal_de_bruijn(
    sigma: int, k: int, ell: int, alphabet: Optional[Alphabet] = None
) -> ConstructionResult:
    """ell*K pairwise "each window at most ell times" de Bruijn sequences,
    K = floor(sigma/2) for sigma >= 4 and K = 2 for sigma = 3."""
    if sigma < 3:
        raise ParameterOutOfRange(f"need sigma >= 3, got {sigma}")
    if k < 1:
        raise ParameterOutOfRange(f"need k >= 1, got {k}")
    if not 1 <= ell <= sigma ** (k - 1):
        raise ParameterOutOfRange(f"need 1 <= ell <= sigma^(k-1) = {sigma ** (k - 1)}")
    alphabet = _fit_alphabet(alphabet, sigma)
    graph = build_de_bruijn_graph(sigma, k)
    circuits, prov = _rewiring_family(graph, ell)
    words = [circuit_to_word(c) for c in circuits]
    return _certified(
        "de-bruijn", {"sigma": sigma, "k": k, "ell": ell}, alphabet, k, words, circuits,
        [verify.is_de_bruijn(w, sigma, k) for w in words]
        + [verify.is_l_orthogonal(words, k, ell), verify.are_compatible(circuits, ell)],
        prov, K=len(circuits) // ell, upper_bound=ell * (sigma - 1),
    )


def construct_l_orthogonal_kautz(
    sigma: int, k: int, ell: int, alphabet: Optional[Alphabet] = None
) -> ConstructionResult:
    """Same recursion on the Kautz graph; K' = max(2, floor((sigma-1)/2))."""
    if sigma < 4:
        raise ParameterOutOfRange(f"need sigma >= 4, got {sigma}")
    if k < 2:
        raise ParameterOutOfRange(f"need k >= 2, got {k}")
    graph = build_kautz_graph(sigma, k)
    if not 1 <= ell <= graph.num_vertices:
        raise ParameterOutOfRange(f"need 1 <= ell <= {graph.num_vertices}")
    alphabet = _fit_alphabet(alphabet, sigma)
    circuits, prov = _rewiring_family(graph, ell)
    words = [circuit_to_word(c) for c in circuits]
    return _certified(
        "kautz", {"sigma": sigma, "k": k, "ell": ell}, alphabet, k, words, circuits,
        [verify.is_kautz_word(w, sigma, k) for w in words]
        + [verify.is_l_orthogonal(words, k, ell), verify.are_compatible(circuits, ell)],
        prov, K=len(circuits) // ell,
    )


# ----------------------------------------------------------------------
# arc-disjoint avoiding cycles (prime-power alphabets)


def _field_tables(p: int, m: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables of GF(p^m) on the base-p digit
    encoding (digit j is the coefficient of x^j), so addition is digitwise."""
    digits = [[a // p**j % p for j in range(m)] for a in range(p**m)]

    def value(ds) -> int:
        return sum(d % p * p**j for j, d in enumerate(ds))

    def times(da, db, low) -> int:  # the product modulo x^m + low
        prod = [0] * (2 * m - 1)
        for (i, x), (j, y) in itertools.product(enumerate(da), enumerate(db)):
            prod[i + j] += x * y
        for d in range(2 * m - 2, m - 1, -1):  # x^m = -low
            for j, c in enumerate(low):
                prod[d - m + j] -= prod[d] * c
        return value(prod[:m])

    add = [[value(map(operator.add, da, db)) for db in digits] for da in digits]
    # the first modulus whose quotient ring has no zero divisors is irreducible
    tables = ([[times(da, db, low) for db in digits] for da in digits] for low in digits)
    return add, next(t for t in tables if all(0 not in row[1:] for row in t[1:]))


def _m_sequence(q: int, k: int, add: list[list[int]], mul: list[list[int]]) -> list[int]:
    """One period, from the state 0...01, of the first recurrence
    x_n = c_(k-1) x_(n-1) + ... + c_0 x_(n-k) over GF(q) of full period q^k - 1
    (one exists for every q and k), taking (c_(k-1), ..., c_0) in lexicographic
    order with c_0 != 0, so the state map is invertible and the start recurs."""
    start = [0] * (k - 1) + [1]
    for coeffs in itertools.product(*[range(q)] * (k - 1), range(1, q)):
        taps = [mul[c] for c in reversed(coeffs)]  # taps[i] multiplies x_(n-k+i)
        seq = list(start)
        while len(seq) == k or seq[-k:] != start:
            x = 0
            for row, s in zip(taps, seq[-k:]):
                x = add[x][row[s]]
            seq.append(x)
        if len(seq) - k == q**k - 1:
            return seq[:-k]


def find_arc_disjoint_avoiding_cycles(sigma: int, k: int) -> list[Circuit]:
    """sigma pairwise arc-disjoint cycles on the order-(k+1) graph, the i-th
    avoiding the all-i vertex and visiting every other k-word exactly once.

    Guaranteed for prime-power sigma; NotPrimePower otherwise.  Cycle t is an
    m-sequence plus t, whose windows obey its recurrence plus t*f(1) for the
    characteristic polynomial f; f(1) != 0 (or sigma = 2, k = 1), so no two
    cycles share a window."""
    if sigma < 2 or k < 1:
        raise ParameterOutOfRange("need sigma >= 2 and k >= 1")
    graph = build_de_bruijn_graph(sigma, k + 1)
    if not is_prime_power(sigma):
        raise NotPrimePower(f"sigma = {sigma} is not a prime power")
    add, mul = _field_tables(*factorize(sigma).popitem())  # sigma = p^m
    base = _m_sequence(sigma, k, add, mul)  # cycle t is base + t
    circuits = [word_to_circuit([add[t][s] for s in base], graph) for t in range(sigma)]
    # internal invariants: avoidance, coverage, disjointness
    for i, c in enumerate(circuits):
        visits = set(c.vertex_seq())
        if graph.vertex_index[(i,) * k] in visits or not len(visits) == len(c) == sigma**k - 1:
            raise CertificationError(f"avoiding cycle {i} malformed")
    if not verify.are_arc_disjoint(circuits).holds:
        raise CertificationError("avoiding cycles share an arc")
    return circuits


# ----------------------------------------------------------------------
# balanced collections


def insert_loop(circuit: Circuit, vertex_entries: tuple) -> Circuit:
    """Insert the loop arc at a homogeneous vertex into a visiting walk."""
    g = circuit.graph
    loop_id = g.arc_id_of_word(tuple(vertex_entries) + (vertex_entries[-1],))
    v = g.vertex_index[tuple(vertex_entries)]
    visits = circuit.vertex_seq()
    if v not in visits:
        raise ParameterOutOfRange(f"walk never visits vertex {vertex_entries}")
    pos = visits.index(v)
    return Circuit(g, circuit.arc_seq[:pos] + (loop_id,) + circuit.arc_seq[pos:])


def build_b_circuit(tau: int, b: int, cycles: Sequence[Circuit]) -> Circuit:
    """Combine cycles b*tau .. b*tau+b-1, each with one loop transition added,
    into a closed walk visiting every vertex exactly b times.

    Member i < b-1 takes the loop at the all-(b*tau+i+1) vertex; the last
    member takes the loop at the all-(b*tau) vertex (which it visits because
    only cycle b*tau avoids it, so b >= 2 is the useful range)."""
    if b < 1 or tau < 0:
        raise ParameterOutOfRange("need b >= 1 and tau >= 0")
    if b * (tau + 1) > len(cycles):
        raise ParameterOutOfRange("not enough cycles for this group")
    group = list(cycles[b * tau : b * tau + b])
    g = group[0].graph
    k = g.k - 1
    decorated = []
    for i in range(b - 1):
        decorated.append(insert_loop(group[i], (b * tau + i + 1,) * k))
    decorated.append(insert_loop(group[b - 1], (b * tau,) * k))
    return combine_closed_walks(decorated)


def combine_closed_walks(walks: Sequence[Circuit]) -> Circuit:
    """Splice closed walks into one at their first shared vertices."""
    if not walks:
        raise ParameterOutOfRange("need at least one walk")
    g = walks[0].graph
    result, visits = list(walks[0].arc_seq), list(walks[0].vertex_seq())
    for w in walks[1:]:
        if w.graph is not g:
            raise ParameterOutOfRange("walks live on different graphs")
        wvisits = w.vertex_seq()
        shared = map(set(wvisits).__contains__, visits)
        pos = next(itertools.compress(itertools.count(), shared), None)
        if pos is None:
            raise ParameterOutOfRange("closed walks share no vertex")
        q = wvisits.index(visits[pos])
        result[pos:pos] = w.arc_seq[q:] + w.arc_seq[:q]
        visits[pos:pos] = wvisits[q:] + wvisits[:q]
    return Circuit(g, tuple(result))


def tensor_compose_b_circuits(c1: Circuit, c2: Circuit) -> Circuit:
    """Index-synchronous pairing of two coprime-length circuit streams into
    one circuit of the tensor product graph."""
    len1, len2 = len(c1), len(c2)
    if math.gcd(len1, len2) != 1:
        raise NotCoprime(f"stream lengths {len1} and {len2} share a factor")
    for c in (c1, c2):
        if len(c) % c.graph.num_vertices != 0:
            raise ParameterOutOfRange("walk length is not a multiple of |V|")
    product = tensor_product(c1.graph, c2.graph)
    # position t pairs arcs a1 = c1[t mod len1] and a2 = c2[t mod len2]: arc a1*|A2| + a2
    radices = (c1.graph.num_arcs, c2.graph.num_arcs)
    return Circuit(product, mixed_radix_join((c1.arc_seq, c2.arc_seq), radices))


def construct_orthogonal_balanced_de_bruijn(
    c: int, b: int, k: int, alphabet: Optional[Alphabet] = None
) -> ConstructionResult:
    """c sequences over the smallest workable alphabet, each containing every
    k-word exactly b times, sharing no (k+1)-window.

    sigma = c*b exactly when every prime of c divides b (prime-by-prime
    factor construction composed through the digit map); otherwise the
    smallest prime power >= c*b is used directly.
    """
    if c < 2 or b < 2:
        raise ParameterOutOfRange("need c >= 2 and b >= 2")
    if k < 1:
        raise ParameterOutOfRange("need k >= 1")
    cb = c * b
    c_fac = factorize(c)
    prov: list[str] = []
    if all(b % p == 0 for p in c_fac):
        sigma = cb
        components = []
        rem = b
        for p in sorted(c_fac, reverse=True):
            x = c_fac[p]
            y = 0
            while rem % p == 0:
                rem //= p
                y += 1
            components.append(_prime_power_component(p ** (x + y), p**x, p**y, k, prov))
        if rem > 1:
            g = build_de_bruijn_graph(rem, k + 1)
            components.append((rem, [find_eulerian_circuit(g)]))
            prov.append(f"factor {rem}: Eulerian circuit of the order-{k + 1} graph")
    else:
        sigma = smallest_prime_power_geq(cb)
        components = [_prime_power_component(sigma, c, b, k, prov)]
    alphabet = _fit_alphabet(alphabet, sigma)
    sigmas = [s for s, _ in components]
    if math.prod(sigmas) != sigma:
        raise CertificationError("factor alphabets do not multiply out")
    streams = [[tuple(circuit_to_word(w)) for w in walks] for _, walks in components]
    combo_words = [
        Word(mixed_radix_join(choice, sigmas), circular=True)
        for choice in itertools.product(*streams)
    ]
    lifted = build_de_bruijn_graph(sigma, k + 1)
    circuits = [word_to_circuit(w, lifted) for w in combo_words]
    return _certified(
        "balanced-de-bruijn", {"c": c, "b": b, "k": k}, alphabet, k, combo_words, circuits,
        [verify.is_b_balanced(w, sigma, k, b) for w in combo_words]
        + [verify.is_self_orthogonal(w, k) for w in combo_words]
        + [verify.is_l_orthogonal(combo_words, k, 1), verify.are_arc_disjoint(circuits)]
        + [verify.is_b_circuit(cc, lifted, b) for cc in circuits],
        prov, sigma_used=sigma, lower_bound=cb, upper_bound=smallest_prime_power_geq(cb),
    )


def _prime_power_component(
    sigma: int, c: int, b: int, k: int, prov: list[str]
) -> tuple[int, list[Circuit]]:
    """c arc-disjoint b-circuits on the order-(k+1) graph over a prime-power
    alphabet, from grouped avoiding cycles."""
    cycles = find_arc_disjoint_avoiding_cycles(sigma, k)
    walks = [build_b_circuit(tau, b, cycles) for tau in range(c)]
    prov.append(f"factor {sigma}: {c} groups of {b} avoiding cycles with loop transitions")
    return sigma, walks


def construct_orthogonal_balanced_kautz(
    c: int, b: int, k: int, alphabet: Optional[Alphabet] = None
) -> ConstructionResult:
    """c adjacent-distinct sequences over 2cb+1 symbols, each containing every
    adjacent-distinct k-word exactly b times, sharing no (k+1)-window."""
    if c < 1 or b < 1:
        raise ParameterOutOfRange("need c >= 1 and b >= 1")
    if k < 2:
        raise ParameterOutOfRange("need k >= 2")
    sigma = 2 * c * b + 1
    alphabet = _fit_alphabet(alphabet, sigma)
    graph = build_kautz_graph(sigma, k)
    family, prov = _rewiring_family(graph, 1)  # c*b circuits at degree 2cb
    lifted = build_kautz_graph(sigma, k + 1)
    hams = [hamiltonian_from_eulerian(cc, lifted) for cc in family]
    walks = [
        combine_closed_walks(hams[b * tau : b * tau + b]) for tau in range(c)
    ]
    prov.append(f"lifted {c * b} compatible circuits, combined in {c} groups of {b}")
    words = [circuit_to_word(w) for w in walks]
    return _certified(
        "balanced-kautz", {"c": c, "b": b, "k": k}, alphabet, k, words, walks,
        [verify.is_b_balanced_kautz(w, sigma, k, b) for w in words]
        + [verify.is_l_orthogonal(words, k, 1), verify.are_arc_disjoint(walks)]
        + [verify.is_b_circuit(w, lifted, b) for w in walks],
        prov, sigma_used=sigma, lower_bound=c * b + 1, upper_bound=sigma,
    )


# ----------------------------------------------------------------------
# fixed-weight families


def _split_circuit_family(graph: DirectedMultigraph, m: int) -> tuple[list[Circuit], list[str]]:
    """m pairwise compatible Eulerian circuits.  Member j is the traversal with
    the shift-j wiring at every low-degree vertex, i-th in-arc to (i+j)-th
    out-arc (ids ascend with the words: in-arcs by leading symbol, out-arcs by
    trailing symbol), then rewired at every full-degree (maximum-degree)
    vertex given members 0..j-1; distinct shifts give disjoint wirings."""
    if m == 1:
        return [find_eulerian_circuit(graph)], ["circuit 0: Eulerian circuit"]
    degs = list(map(len, graph.in_arcs))
    full_degree = max(degs)
    split_set = [v for v in range(graph.num_vertices) if degs[v] < full_degree]
    if split_set and m > min(degs[v] for v in split_set):
        raise ParameterOutOfRange("more circuits than disjoint shift wirings")
    prov: list[str] = []
    raw: list[Circuit] = []
    for j in range(m):
        wiring: dict[int, int] = {}
        for v in split_set:
            outs = graph.out_arcs[v]
            wiring.update(zip(graph.in_arcs[v], outs[j:] + outs[:j]))
        raw.append(find_eulerian_circuit(graph, wiring))
        prov.append(f"circuit {j}: shift-{j} wirings at {len(split_set)} split vertices")
    out = [raw[0]]
    middles = [v for v in range(graph.num_vertices) if degs[v] == full_degree]
    for j in range(1, m):
        out.append(rewire_vertex_set(middles, raw[j], out[:j]))
        prov.append(f"circuit {j}: rewired {len(middles)} full-degree vertices given 0..{j - 1}")
    return out, prov


def _fixed_weight_result(family: str, parameters: dict, alphabet: Alphabet,
                         graph: DirectedMultigraph, m: int) -> ConstructionResult:
    """The m-member family of a weight-band language's graph, certified to
    cover the language's words: the graph's arc words, one per arc."""
    language = graph.arc_words()
    circuits, prov = _split_circuit_family(graph, m)
    words = [circuit_to_word(c) for c in circuits]
    return _certified(
        family, {**parameters, "W": sorted(alphabet.weighted), "sigma": alphabet.sigma},
        alphabet, graph.k, words, circuits,
        [verify.is_fixed_weight_db(word, language) for word in words]
        + [verify.is_l_orthogonal(words, graph.k, 1), verify.are_compatible(circuits)],
        prov, language_size=len(language),
    )


def construct_fixed_weight_orthogonal_db(
    alphabet: Alphabet, k: int, w: int
) -> ConstructionResult:
    """min(|W|,|X|) compatible circuits through all k-words of weight w-1 or w
    (weight counted over the alphabet's weighted subset W)."""
    n_w = len(alphabet.weighted)
    n_x = alphabet.sigma - n_w
    if n_w < 1 or n_x < 1:
        raise ParameterOutOfRange("both symbol classes must be nonempty")
    if k < 2:
        raise ParameterOutOfRange("need k >= 2")
    if not 1 <= w <= k:
        raise ParameterOutOfRange(f"need 1 <= w <= k, got w={w}")
    spec = LanguageSpec("full", k, min_weight=w - 1, max_weight=w)
    graph = build_language_graph(spec, alphabet)
    return _fixed_weight_result("fixed-weight-de-bruijn", {"k": k, "w": w}, alphabet, graph,
                                min(n_w, n_x))


def fixed_weight_kautz_exists(k: int, w_min: int, w_max: int) -> bool:
    """Feasibility of an adjacent-distinct sequence covering the weight band
    [w_min, w_max] exactly once each: only the full-band-at-an-end shapes.

    At order 2 every band is coverable: the windows through a symbol x are
    ax and xb, which weight identically, so the band graph is balanced at
    every vertex (the order >= 3 degree-mismatch argument has no analogue).
    """
    if not 0 <= w_min <= w_max <= k:
        raise ParameterOutOfRange("need 0 <= w_min <= w_max <= k")
    if k == 2:
        return True
    if w_min == w_max:
        return w_min == 0 or w_max == k
    return w_min in (0, 1) and w_max in (k - 1, k)


def construct_fixed_weight_kautz_orthogonal(
    alphabet: Alphabet, k: int, w_min: int, w_max: int
) -> ConstructionResult:
    """Compatible circuit family for the adjacent-distinct weight-band
    languages that admit one; UnsupportedCase otherwise."""
    n_w = len(alphabet.weighted)
    n_x = alphabet.sigma - n_w
    if n_w < 2 or n_x < 2:
        raise ParameterOutOfRange("need at least two symbols in each class")
    if k < 2:
        raise ParameterOutOfRange("need k >= 2")
    if not fixed_weight_kautz_exists(k, w_min, w_max):
        raise UnsupportedCase(f"no such sequence for band ({w_min},{w_max}) at k={k}")
    spec = LanguageSpec("kautz", k, min_weight=w_min, max_weight=w_max)
    graph = build_language_graph(spec, alphabet)
    delta = alphabet.sigma - 1
    if w_min == w_max:
        # single-class band: plain traversal of the sub-alphabet language
        m = 1
    else:
        degs = list(map(len, graph.in_arcs))
        split_degrees = [d for d in degs if d < delta]
        m = min(min(split_degrees, default=delta), delta // 2)
        if k == 2 and not any(d == delta for d in degs):
            m = 1  # no full-degree vertex to rewire at
    parameters = {"k": k, "w_min": w_min, "w_max": w_max}
    return _fixed_weight_result("fixed-weight-kautz", parameters, alphabet, graph, m)


# ----------------------------------------------------------------------
# the family table


@dataclass(frozen=True)
class Family:
    """One collection family: its names, the request fields it needs (with
    the label a missing one is reported under), and how it is built."""

    name: str
    aliases: tuple[str, ...]
    needs: tuple[tuple[str, str], ...]
    build: Callable[[OrthogonalCollectionRequest], ConstructionResult]


# `build` looks the constructor up by its module-global name at call time, so
# anything that replaces a module attribute (a tracer, a test) sees the call.
FAMILIES = (
    Family(
        "de-bruijn", ("ortho-db",), (("sigma", "sigma"),),
        lambda r: construct_l_orthogonal_de_bruijn(r.sigma, r.k, r.ell, r.alphabet),
    ),
    Family(
        "kautz", ("ortho-kautz",), (("sigma", "sigma"),),
        lambda r: construct_l_orthogonal_kautz(r.sigma, r.k, r.ell, r.alphabet),
    ),
    Family(
        "balanced-de-bruijn", ("balanced-db",), (("c", "c"), ("b", "b")),
        lambda r: construct_orthogonal_balanced_de_bruijn(r.c, r.b, r.k, r.alphabet),
    ),
    Family(
        "balanced-kautz", (), (("c", "c"), ("b", "b")),
        lambda r: construct_orthogonal_balanced_kautz(r.c, r.b, r.k, r.alphabet),
    ),
    Family(
        "fixed-weight-de-bruijn", ("fw-db",),
        (("alphabet", "alphabet with a weighted class"), ("weight", "weight")),
        lambda r: construct_fixed_weight_orthogonal_db(r.alphabet, r.k, r.weight),
    ),
    Family(
        "fixed-weight-kautz", ("fw-kautz",),
        (("alphabet", "alphabet with a weighted class"), ("weight_band", "weight band")),
        lambda r: construct_fixed_weight_kautz_orthogonal(r.alphabet, r.k, *r.weight_band),
    ),
)


def construct(request: OrthogonalCollectionRequest) -> ConstructionResult:
    """Build the family a request names (canonical names only, not aliases)."""
    family = next((f for f in FAMILIES if f.name == request.family), None)
    if family is None:
        raise ParameterOutOfRange(f"unknown family {request.family!r}")
    for field_name, label in family.needs:
        if getattr(request, field_name) is None:
            raise ParameterOutOfRange(f"missing parameter: {label}")
    return family.build(request)
