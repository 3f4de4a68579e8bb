"""Report rendering tests.

`VerificationReport.to_json_dict` renders window keys at C speed and every
other key one by one; both must give exactly the dict, key order included,
that a recursive render of each key gives.  The `verify` text output names
each failing property's witness and must not change with how it is rendered.
"""

from __future__ import annotations

import json

import pytest

from orthoseq.alphabet import Alphabet, default_alphabet
from orthoseq.circuits import find_eulerian_circuit
from orthoseq.cli import main
from orthoseq.graphs import build_de_bruijn_graph, tensor_product
from orthoseq.verify import (
    VerificationReport,
    is_b_balanced,
    is_b_circuit,
    is_de_bruijn,
    is_self_orthogonal,
)


def reference_json(report, alphabet=None) -> dict:
    """to_json_dict by one recursive render per key."""

    def render(obj):
        if alphabet is not None and isinstance(obj, tuple) and all(
            isinstance(x, int) for x in obj
        ):
            return alphabet.render(obj)
        if isinstance(obj, tuple):
            return ",".join(str(render(x)) for x in obj)
        return obj

    out = {"property": report.property, "holds": report.holds}
    if report.witness is not None:
        out["witness"] = render(report.witness)
    if report.counts is not None:
        out["counts"] = {str(render(k)): v for k, v in sorted(report.counts.items())}
    return out


def product_walk_report():
    """A failing b-circuit report whose counts are keyed by product-vertex
    labels, tuples of tuples: an Eulerian circuit visits each vertex 4 times."""
    graph = tensor_product(build_de_bruijn_graph(2, 2), build_de_bruijn_graph(2, 2))
    return is_b_circuit(find_eulerian_circuit(graph), graph, 1)


REPORTS = {
    "de-bruijn-pass": lambda: is_de_bruijn((0, 0, 1, 0, 2, 1, 1, 2, 2), 3, 2),
    "balanced-length": lambda: is_b_balanced((0, 1, 2, 0, 2), 3, 2, 2),
    "self-orthogonal-fail": lambda: is_self_orthogonal((0, 1, 0, 1, 2, 2), 1),
    "product-b-circuit": product_walk_report,
    # an empty window renders as "-", so it keeps the per-key render
    "empty-window": lambda: VerificationReport("windows", True, counts={(): 1, (0, 2): 2}),
    # a window before its own extensions, as tuples and as bytes order them
    "mixed-lengths": lambda: VerificationReport(
        "windows", True, counts={(0, 2, 1): 1, (0, 2): 2, (1,): 1, (0, 2, 0): 3}
    ),
}
ALPHABETS = {
    "none": None,
    "digits": default_alphabet(3),
    "multi-character": Alphabet(("AA", "C", "GGG")),
}


@pytest.mark.parametrize("alphabet", ALPHABETS.values(), ids=ALPHABETS)
@pytest.mark.parametrize("make_report", REPORTS.values(), ids=REPORTS)
def test_to_json_dict_matches_the_per_key_render(make_report, alphabet):
    report = make_report()
    assert report.counts
    got, want = report.to_json_dict(alphabet), reference_json(report, alphabet)
    assert got == want
    assert list(got["counts"]) == list(want["counts"])
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("alphabet", [None, Alphabet(tuple(f"s{i}" for i in range(301)))])
def test_windows_past_a_byte_keep_tuple_order(alphabet):
    """Symbols outside 0..255 have no bytes key, so these windows sort as tuples."""
    report = VerificationReport("windows", True, counts={(300, 1): 1, (2, 0): 3, (-1, 5): 2})
    got, want = report.to_json_dict(alphabet), reference_json(report, alphabet)
    assert list(got["counts"].items()) == list(want["counts"].items())


@pytest.mark.parametrize("alphabet", [ALPHABETS["digits"], ALPHABETS["multi-character"]])
def test_render_many_matches_render(alphabet):
    words = [(0,), (2, 1, 0), (1,) * 7, (0, 2) * 5]
    assert list(alphabet.render_many(words)) == [alphabet.render(w) for w in words]


def test_reports_cover_both_outcomes_and_witness_kinds():
    assert is_de_bruijn((0, 0, 1, 0, 2, 1, 1, 2, 2), 3, 2).holds
    assert is_b_balanced((0, 1, 2, 0, 2), 3, 2, 2).witness[0] == "length"
    report = product_walk_report()
    assert not report.holds
    assert all(isinstance(label[0], tuple) for label in report.counts)


def test_verify_text_names_the_witness_of_a_corrupted_long_word(capsys):
    assert main(["generate", "--family", "balanced-de-bruijn", "-c", "2", "-b", "10",
                 "-k", "2"]) == 0
    word = capsys.readouterr().out.split()[0]
    alphabet = default_alphabet(20)
    tokens = alphabet.tokens
    assert len(word) == 4000
    bad = word[:1234] + tokens[(tokens.index(word[1234]) + 1) % 20] + word[1235:]
    code = main(["verify", "--property", "balanced", "--sigma", "20", "-k", "2", "-b", "10",
                 "--word", bad])
    out = capsys.readouterr().out
    assert code == 1
    # recorded when the line was built from the full to_json_dict, histogram included
    assert out == (
        "FAIL  balanced(20,2,b=10)  witness='89'\n"
        "FAIL  self_orthogonal(k=2)  witness='89i'\n"
    )
    entries = alphabet.parse(bad)
    reports = [is_b_balanced(entries, 20, 2, 10), is_self_orthogonal(entries, 2)]
    assert out == "".join(
        f"FAIL  {r.property}  witness={r.to_json_dict(alphabet)['witness']!r}\n" for r in reports
    )
