"""JSON writer tests.

Every JSON document the command line writes goes through `cli._dump_json`,
which hands flat containers to the C encoder.  Its output must be exactly
``json.dumps(doc, indent=2, sort_keys=True)``: on random JSON-like documents,
and on the real documents of every family, `enumerate`, `verify` and
`export`.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from orthoseq import cli
from orthoseq.cli import _dump_json, main


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats()
    | st.text()
    | st.sampled_from(['"', "\\", "\n", "\t", "\x00", "é", " ", "😀", "</script>"])
)


def containers(children):
    # dicts keyed by one non-str type take the fallback path; mixed key types
    # would make sort_keys raise in both writers
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.dictionaries(st.floats(allow_nan=False), children, max_size=3)
        | st.dictionaries(st.booleans(), children, max_size=2)
        | st.dictionaries(st.none(), children, max_size=1)
    )


documents = st.recursive(scalars, containers, max_leaves=40)


@given(doc=documents)
@settings(max_examples=400, deadline=None)
@example(doc={})
@example(doc=[])
@example(doc={"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}]})
@example(doc=[[[[]]], {"x": [[], {}]}, ()])
@example(doc={"counts": {"é\n": 1, '"q"': 2}, "words": ("ab", "c\\d"), "n": None})
@example(doc={"big": 10**100, "neg": -(2**70), "f": 1e300, "t": True, "z": -0.0})
@example(doc={1: "a", 2: ["b", {"c": 3}]})
@example(doc={"outer": {2.5: [1], -1.0: {}}})
@example(doc=[float("nan"), float("inf"), {"k": float("-inf")}])
def test_dump_json_matches_json_dumps(doc):
    assert _dump_json(doc) == reference(doc)


COMMANDS = [
    "generate --family de-bruijn --sigma 3 -k 3 --ell 2 --format json",
    "generate --family kautz --sigma 4 -k 3 --ell 2 --format json",
    "generate --family balanced-de-bruijn -c 2 -b 6 -k 2 --format json",
    "generate --family balanced-kautz -c 2 -b 1 -k 2 --format json",
    "generate --family fixed-weight-de-bruijn --dna -k 4 --weight 3 --format json",
    "generate --family fixed-weight-kautz --alphabet ATCG --weighted CG -k 3 --band 1 2 --format json",
    "enumerate --sigma 2 -k 4 --format json",
    "verify --property balanced --sigma 4 -k 2 -b 2 --ell 1 --word 0011223300112233 --format json",
    "verify --property de-bruijn --sigma 3 -k 2 --word 012002212 --word 012002211 --ell 1 --format json",
    "verify --property fixed-weight-kautz --dna -k 3 --band 1 1 --word ACATAGTAGTCT --format json",
    "export --sigma 3 -k 2 --format json",
    "export --dna -k 3 --kautz --band 1 1 --format json",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_real_documents_match_json_dumps(command, capsys, monkeypatch):
    docs = []

    def spy(obj, indent=""):
        if not indent:
            docs.append(obj)
        return _dump_json(obj, indent)

    monkeypatch.setattr(cli, "_dump_json", spy)
    assert main(command.split()) in (0, 1)
    out = capsys.readouterr().out
    assert len(docs) == 1
    assert out == reference(docs[0]) + "\n"
    assert _dump_json(docs[0]) == reference(docs[0])
