"""One digest over a sweep of both balanced families, the output contract of
the avoiding-cycle composition and of the order lift.

Each request contributes its words, its circuits' arc sequences (rotation
included) and its `info` when it certifies, or the name and message of the
typed error it raises.  The sweep runs balanced de Bruijn over c = 1..4,
b = 1..6 and k = 0..3 and balanced Kautz over c, b = 0..3 and k = 1..3,
keeping the (c, b) pairs whose Kautz alphabet 2cb + 1 has at most 19 symbols,
so it holds composed factors, prime-power alphabets, lifted Kautz circuits
and each typed refusal.  A change that moves any of these outputs on purpose
re-records the digest and lists the changed requests.
"""

from __future__ import annotations

import hashlib

from orthoseq.constructions import OrthogonalCollectionRequest, construct
from orthoseq.errors import OrthoseqError

REQUESTS = [
    dict(family="balanced-de-bruijn", c=c, b=b, k=k)
    for c in range(1, 5)
    for b in range(1, 7)
    for k in range(4)
    if 2 * c * b + 1 <= 19
] + [
    dict(family="balanced-kautz", c=c, b=b, k=k)
    for c in range(4)
    for b in range(4)
    for k in range(1, 4)
    if 2 * c * b + 1 <= 19
]

GOLDEN = "474831519632685269cdbd6922e99ddd780950263c654e539aef3978b8b912e2"


def contract_digest() -> tuple[str, dict]:
    h = hashlib.sha256()
    tally: dict = {}
    for params in REQUESTS:
        try:
            result = construct(OrthogonalCollectionRequest(**params))
        except OrthoseqError as exc:
            outcome = type(exc).__name__
            h.update(f"{outcome}: {exc}".encode())
        else:
            outcome = "certified"
            h.update(repr([w.entries for w in result.words]).encode())
            h.update(repr([c.arc_seq for c in result.circuits]).encode())
            h.update(repr(sorted(result.info.items())).encode())
        tally[outcome] = tally.get(outcome, 0) + 1
    return h.hexdigest(), tally


def test_balanced_outputs_are_unchanged():
    digest, tally = contract_digest()
    assert len(REQUESTS) == 108
    assert tally == {"certified": 36, "ParameterOutOfRange": 72}
    assert digest == GOLDEN
