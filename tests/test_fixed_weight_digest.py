"""One digest over a fixed list of fixed-weight requests, the output contract
of both fixed-weight families.

Each request contributes its exact circuits (arc sequences, rotation
included) and provenance when it certifies, or the type of the error it
raises.  The list runs both families over alphabets of 4 and 5 symbols with
weighted classes of one to three symbols, at k = 2..5, every weight from 0 to
k + 1 and every weight band, so it holds certified results, rewired members
(m >= 2) and each typed refusal.  A change that moves any of these outputs on
purpose re-records the digest and lists the changed requests.
"""

from __future__ import annotations

import hashlib

from orthoseq.alphabet import default_alphabet
from orthoseq.constructions import OrthogonalCollectionRequest, construct
from orthoseq.errors import OrthoseqError

ALPHABETS = [
    default_alphabet(sigma, weighted)
    for sigma, weighted in (
        (4, (0,)), (4, (2, 3)), (4, (0, 1, 3)),
        (5, (2,)), (5, (0, 4)), (5, (1, 2, 3)),
    )
]

REQUESTS = [
    dict(family="fixed-weight-de-bruijn", alphabet=alphabet, k=k, weight=w)
    for alphabet in ALPHABETS
    for k in (2, 3, 4, 5)
    for w in range(k + 2)
] + [
    dict(family="fixed-weight-kautz", alphabet=alphabet, k=k, weight_band=(lo, hi))
    for alphabet in ALPHABETS
    for k in (2, 3, 4, 5)
    for lo in range(k + 1)
    for hi in range(lo, k + 1)
]

GOLDEN = "075c121ba9c5bbe50d0b82b22e1e6177ac8e843c4e690a2fc95a034e2e31033b"


def contract_digest() -> tuple[str, dict]:
    h = hashlib.sha256()
    tally: dict = {}
    for params in REQUESTS:
        try:
            result = construct(OrthogonalCollectionRequest(**params))
        except OrthoseqError as exc:
            outcome = type(exc).__name__
            h.update(outcome.encode())
        else:
            outcome = "certified"
            h.update(repr([c.arc_seq for c in result.circuits]).encode())
            h.update(repr(result.provenance).encode())
        tally[outcome] = tally.get(outcome, 0) + 1
    return h.hexdigest(), tally


def test_fixed_weight_outputs_are_unchanged():
    digest, tally = contract_digest()
    assert tally == {"certified": 156, "ParameterOutOfRange": 204, "UnsupportedCase": 84}
    assert digest == GOLDEN
