"""One digest over a fixed list of rewiring-family requests, the output
contract of the l-orthogonal de Bruijn and Kautz families.

Each request contributes its exact circuits (arc sequences, rotation
included) and provenance when it certifies, or the type of the error it
raises.  The list runs de Bruijn over 3..7 symbols at k = 1..3 and Kautz over
4..7 symbols at k = 2..3, each at ell = 0, 1, 2, 3, about half the vertex
count, one less than it, all of it and one more, plus a few k = 4 requests
and the out-of-range alphabets and orders.  The tally counts the 11 requests
whose cycle joining needs the wiring search (`rejoin`) because the 2-swaps
alone cannot finish it, de Bruijn (6,2,5), (6,2,6), (6,3,36), (6,4,216) and
Kautz (7,2,7), (7,3,21), (7,3,42) among them.  A change that moves any of
these outputs on purpose re-records the digest and lists the changed
requests.
"""

from __future__ import annotations

import hashlib

from orthoseq import circuits
from orthoseq.constructions import OrthogonalCollectionRequest, construct
from orthoseq.errors import OrthoseqError


def _ells(n: int) -> list[int]:
    return sorted({0, 1, 2, 3, n // 2, n - 1, n, n + 1})


REQUESTS = (
    [
        dict(family="de-bruijn", sigma=s, k=k, ell=ell)
        for s in range(3, 8)
        for k in (1, 2, 3)
        for ell in _ells(s ** (k - 1))
    ]
    + [dict(family="de-bruijn", sigma=s, k=4, ell=ell) for s in (3, 4, 5, 6) for ell in (1, 2, 3)]
    + [dict(family="de-bruijn", sigma=6, k=4, ell=216)]
    + [
        dict(family="kautz", sigma=s, k=k, ell=ell)
        for s in range(4, 8)
        for k in (2, 3)
        for ell in _ells(s * (s - 1) ** (k - 2))
    ]
    + [dict(family="kautz", sigma=s, k=4, ell=ell) for s in (4, 5, 6, 7) for ell in (1, 2, 3)]
    + [
        dict(family="de-bruijn", sigma=2, k=3, ell=1),
        dict(family="de-bruijn", sigma=4, k=0, ell=1),
        dict(family="kautz", sigma=3, k=3, ell=1),
        dict(family="kautz", sigma=5, k=1, ell=1),
    ]
)

GOLDEN = "75e69acc2a58c43aa81c89bd885c9f9af278c6b828ea77253aafd436921ba003"


def contract_digest(monkeypatch) -> tuple[str, dict]:
    searches = [0]
    search = circuits._rewire_search

    def counted(*args):
        searches[0] += 1
        return search(*args)

    monkeypatch.setattr(circuits, "_rewire_search", counted)
    h = hashlib.sha256()
    tally: dict = {}
    for params in REQUESTS:
        before = searches[0]
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
        if searches[0] > before:
            tally["rejoin"] = tally.get("rejoin", 0) + 1
    return h.hexdigest(), tally


def test_rewiring_outputs_are_unchanged(monkeypatch):
    digest, tally = contract_digest(monkeypatch)
    assert len(REQUESTS) == 180
    assert tally == {"certified": 125, "ParameterOutOfRange": 55, "rejoin": 11}
    assert digest == GOLDEN
