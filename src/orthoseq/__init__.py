"""Orthogonal de Bruijn and Kautz sequence collections.

Construct collections of circular sequences in which every (k+1)-window
appears a bounded number of times across the whole collection: classic and
ell-orthogonal de Bruijn sequences, their Kautz (no adjacent repeat)
variants, b-balanced generalizations, and fixed-weight families.  Every
construction is certified against an independent brute-force verifier
before it is returned.
"""

from .alphabet import (
    Alphabet,
    LanguageSpec,
    Word,
    default_alphabet,
    dna_alphabet,
    expand_language,
)
from .circuits import (
    Circuit,
    circuit_to_word,
    find_eulerian_circuit,
    hamiltonian_from_eulerian,
    rewire_vertex_set,
    word_to_circuit,
)
from .constructions import (
    ConstructionResult,
    OrthogonalCollectionRequest,
    construct,
    construct_fixed_weight_kautz_orthogonal,
    construct_fixed_weight_orthogonal_db,
    construct_l_orthogonal_de_bruijn,
    construct_l_orthogonal_kautz,
    construct_orthogonal_balanced_de_bruijn,
    construct_orthogonal_balanced_kautz,
)
from .errors import (
    CertificationError,
    DegreeMismatch,
    GuardExceeded,
    InsufficientDegree,
    NotConnected,
    NotCoprime,
    NotPrimePower,
    OrthoseqError,
    ParameterOutOfRange,
    SearchExhausted,
    TooManyForbidden,
    UnsupportedCase,
)
from .graphs import (
    DirectedMultigraph,
    build_de_bruijn_graph,
    build_kautz_graph,
    build_language_graph,
    build_restricted_graph,
)
from .verify import (
    VerificationReport,
    are_arc_disjoint,
    are_compatible,
    enumerate_db_words,
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

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
