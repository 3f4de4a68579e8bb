"""Golden hash of the wirings the rewiring constructions choose.

Every circuit returned over a fixed case set is hashed by its exact arc
sequence, rotation included.  The hash pins how rewiring chooses a wiring
(the reversed order of the three segments at each degree-3 vertex, taken in
block order; cycle joining at every other degree) and the order in which
vertex blocks are rewired: any change to either, or to where a rewired
circuit starts, changes it.
The case set is the in-process construction mix of the benchmark's
``surgery`` workload (with the fixed-weight families weighted on C and G),
plus the fixed-weight Kautz and de Bruijn collections that ``generate``
builds in its ``roundtrip`` workload.
"""

from __future__ import annotations

import hashlib

from orthoseq.alphabet import dna_alphabet
from orthoseq.constructions import OrthogonalCollectionRequest, construct

DNA = dna_alphabet()  # weighted class {C, G}

CASES = (
    [
        dict(family="de-bruijn", sigma=s, k=k, ell=ell)
        for s, k in ((3, 6), (4, 5), (5, 4), (6, 4), (8, 3), (9, 3))
        for ell in (1, 2, 4)
    ]
    + [
        dict(family="kautz", sigma=s, k=k, ell=ell)
        for s, k in ((4, 5), (5, 5), (6, 4), (8, 3))
        for ell in (1, 2)
    ]
    + [
        dict(family="fixed-weight-de-bruijn", k=k, weight=w, alphabet=DNA)
        for k in (5, 6)
        for w in range(1, k + 1)
    ]
    + [
        dict(family="balanced-kautz", c=c, b=b, k=k)
        for c, b, k in ((2, 2, 3), (1, 3, 3), (3, 1, 3))
    ]
    + [dict(family="de-bruijn", sigma=5, k=5, ell=ell) for ell in (1, 2, 4)]
    + [
        dict(family="fixed-weight-kautz", sigma=4, k=7, weight_band=(1, 6), alphabet=DNA),
        dict(family="de-bruijn", sigma=3, k=6, ell=1),
    ]
)

GOLDEN = "38782b73ff48268970837862e79d31ac50a8a9079eb3bcce281d66d157b8f783"


def wiring_digest() -> str:
    h = hashlib.sha256()
    for params in CASES:
        for circuit in construct(OrthogonalCollectionRequest(**params)).circuits:
            h.update(repr(circuit.arc_seq).encode())
    return h.hexdigest()


def test_chosen_wirings_are_unchanged():
    assert len(CASES) == 45
    assert wiring_digest() == GOLDEN
