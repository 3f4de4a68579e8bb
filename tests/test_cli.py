"""Command line interface tests.

Drives `main` in process: exit codes (0 success, 1 failed property, 2 usage
errors, 3 internal certification failures and other internal errors), the
generate -> verify closed loop, byte determinism of repeated runs, and the
output formats.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orthoseq
from orthoseq.cli import build_parser, main
from orthoseq.constructions import FAMILIES
from orthoseq.verify import VerificationReport


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


# ----------------------------------------------------------------------
# exit codes


def test_generate_succeeds(capsys):
    code, out = run(capsys, "generate", "--family", "de-bruijn", "--sigma", "3", "-k", "2")
    assert code == 0
    assert out.splitlines() == ["010211220", "011002212"]


def test_verify_pass_is_zero(capsys):
    code, out = run(
        capsys, "verify", "--property", "de-bruijn", "--sigma", "3", "-k", "2",
        "--word", "012002211",
    )
    assert code == 0
    assert "PASS" in out


def test_verify_failure_is_one(capsys):
    code, out = run(
        capsys, "verify", "--property", "de-bruijn", "--sigma", "3", "-k", "2",
        "--word", "012002212",
    )
    assert code == 1
    assert "FAIL" in out and "witness" in out


def test_self_orthogonality_failure_names_witness(capsys):
    code, out = run(
        capsys, "verify", "--property", "self-orthogonal", "--sigma", "3", "-k", "2",
        "--word", "000111222020212101",
    )
    assert code == 1
    assert "202" in out


def test_usage_errors_are_two(capsys, tmp_path):
    # no alphabet given
    assert main(["verify", "--property", "de-bruijn", "--word", "0011"]) == 2
    capsys.readouterr()
    # empty words file
    empty = tmp_path / "none.txt"
    empty.write_text("# nothing here\n")
    code = main(
        ["verify", "--property", "de-bruijn", "--sigma", "2", "--words-file", str(empty)]
    )
    assert code == 2
    capsys.readouterr()
    # --dna pins sigma to 4
    assert main(["generate", "--family", "kautz", "--dna", "--sigma", "5"]) == 2
    capsys.readouterr()
    # argparse rejects an unknown family with its own exit code 2
    assert main(["generate", "--family", "mystery", "--sigma", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("ell", ["0", "-1"])
def test_verify_rejects_a_non_positive_ell(capsys, ell):
    # 0 is a given --ell, not a missing one
    code = main(
        ["verify", "--property", "orthogonal", "--sigma", "3", "-k", "2", "--word", "012",
         "--ell", ell]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "ell must be >= 1" in captured.err


def test_unwritable_or_missing_file_is_two(capsys, tmp_path):
    missing = str(tmp_path / "no-such-dir" / "x")
    code = main(["generate", "--family", "de-bruijn", "--sigma", "3", "-k", "2", "-o", missing])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and missing in err
    code = main(["verify", "--property", "de-bruijn", "--sigma", "2", "--words-file", missing])
    assert code == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_closed_stdout_is_not_a_usage_error(monkeypatch, tmp_path):
    # e.g. `orthoseq enumerate ... | head`: neither 2 (usage) nor 1 (a failed property)
    target = tmp_path / "stdout"

    class ClosedPipe:
        fd = os.open(target, os.O_WRONLY | os.O_CREAT)

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["generate", "--family", "de-bruijn", "--sigma", "3", "-k", "2"]) == 141
    os.write(ClosedPipe.fd, b"a later flush")  # lands on devnull now
    os.close(ClosedPipe.fd)
    assert target.read_bytes() == b""


@pytest.mark.parametrize("argv", [
    ["enumerate", "--sigma", "2", "-k", "4"],
    ["generate", "--family", "balanced-de-bruijn", "-c", "2", "-b", "2", "-k", "2"],
])
def test_closed_stdout_in_a_fresh_process_exits_141_without_a_traceback(argv):
    read, write = os.pipe()
    os.close(read)  # closed before the process starts, so its first write fails
    src = str(Path(orthoseq.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    try:
        proc = subprocess.run([sys.executable, "-m", "orthoseq.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_certification_failure_is_three(capsys, monkeypatch):
    # force the internal certificate to report a failure
    def doomed(word, sigma, k):
        return VerificationReport("de_bruijn(forced)", False, witness=(0,))

    monkeypatch.setattr("orthoseq.constructions.verify.is_de_bruijn", doomed)
    code = main(["generate", "--family", "de-bruijn", "--sigma", "3", "-k", "2"])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("error", [RuntimeError("boom"), RecursionError("too deep")])
def test_any_other_exception_is_three(capsys, monkeypatch, error):
    # a crash must never pose as 1, "a verified property does not hold"
    def crash(request):
        raise error

    monkeypatch.setattr("orthoseq.cli.construct", crash)
    code = main(["generate", "--family", "de-bruijn", "--sigma", "3", "-k", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: internal error: {type(error).__name__}: {error}"
    ]


# ----------------------------------------------------------------------
# the generate -> verify closed loop


@pytest.mark.parametrize(
    "gen,ver",
    [
        (
            ["--family", "de-bruijn", "--sigma", "3", "-k", "2", "--ell", "2"],
            ["--property", "de-bruijn", "--sigma", "3", "-k", "2", "--ell", "2"],
        ),
        (
            ["--family", "kautz", "--dna", "-k", "2", "--ell", "2"],
            ["--property", "kautz", "--dna", "-k", "2", "--ell", "2"],
        ),
        (
            ["--family", "balanced-de-bruijn", "-c", "2", "-b", "2", "-k", "2"],
            ["--property", "balanced", "--sigma", "4", "-k", "2", "-b", "2", "--ell", "1"],
        ),
        (
            ["--family", "fixed-weight-kautz", "--dna", "-k", "3", "--band", "1", "2"],
            ["--property", "fixed-weight-kautz", "--dna", "-k", "3", "--band", "1", "2"],
        ),
        (
            ["--family", "balanced-kautz", "-c", "1", "-b", "2", "-k", "2"],
            ["--property", "balanced-kautz", "--sigma", "5", "-k", "2", "-b", "2", "--ell", "1"],
        ),
        (
            ["--family", "fixed-weight-de-bruijn", "--dna", "-k", "3", "--weight", "2"],
            ["--property", "fixed-weight", "--dna", "-k", "3", "--weight", "2", "--ell", "1"],
        ),
    ],
)
def test_generated_collections_verify(capsys, tmp_path, gen, ver):
    out_file = tmp_path / "words.txt"
    assert main(["generate", *gen, "-o", str(out_file)]) == 0
    assert main(["verify", *ver, "--words-file", str(out_file)]) == 0
    # one symbol of the first word changed to another symbol of that word
    text = out_file.read_text()
    other = min(set(text.split()[0]) - {text[0]})
    out_file.write_text(other + text[1:])
    assert main(["verify", *ver, "--words-file", str(out_file)]) == 1
    capsys.readouterr()


ROUND_TRIPS = {  # family: the verify property, and each generate option's range
    "de-bruijn": ("de-bruijn", {"--sigma": (3, 5), "-k": (1, 3), "--ell": (1, 2)}),
    "kautz": ("kautz", {"--sigma": (4, 5), "-k": (2, 3), "--ell": (1, 2)}),
    "balanced-de-bruijn": ("balanced", {"-c": (2, 3), "-b": (2, 3), "-k": (1, 2)}),
    "balanced-kautz": ("balanced-kautz", {"-c": (1, 2), "-b": (1, 2), "-k": (2, 3)}),
    "fixed-weight-de-bruijn": ("fixed-weight", {"-k": (2, 4), "--weight": (0, 4)}),
    "fixed-weight-kautz": ("fixed-weight-kautz", {"-k": (2, 4), "--band": (0, 4)}),
}


@st.composite
def round_trips(draw):
    """A family of FAMILIES with small generate options (DNA for the
    fixed-weight ones), and the verify options that check its output, but
    for --sigma, which is read off the result."""
    family = draw(st.sampled_from([f.name for f in FAMILIES]))
    prop, ranges = ROUND_TRIPS[family]
    gen, ver = ["--family", family], ["--property", prop]
    for flag, (lo, hi) in ranges.items():
        values = sorted(draw(st.integers(lo, hi)) for _ in range(2 if flag == "--band" else 1))
        values = list(map(str, values))  # a band's two ends in order
        gen += [flag, *values]
        if flag not in ("--sigma", "-c"):
            ver += [flag, *values]
    if "--ell" not in ranges:
        ver += ["--ell", "1"]
    if family.startswith("fixed-weight"):
        gen.append("--dna")
        ver.append("--dna")
    return gen, ver


@given(case=round_trips(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_every_family_round_trips_through_verify(case, data):
    gen, ver = case
    with tempfile.TemporaryDirectory() as tmp:
        doc_file, words_file, report = (os.path.join(tmp, name) for name in ("g", "w", "r"))
        code = main(["generate", *gen, "--format", "json", "-o", doc_file])
        assert code in (0, 2)  # a typed refusal is fine; a failed property or a crash is not
        if code == 2:
            return
        doc = json.loads(Path(doc_file).read_text())
        if "--dna" not in ver:
            ver = [*ver, "--sigma", str(doc["sigma"])]
        ver += ["--words-file", words_file, "-o", report]
        words = doc["words"]
        Path(words_file).write_text("\n".join(words) + "\n")
        assert main(["verify", *ver]) == 0
        # one symbol changed to another symbol of the alphabet
        i = data.draw(st.integers(0, len(words) - 1))
        t = data.draw(st.integers(0, len(words[i]) - 1))
        other = data.draw(st.sampled_from([s for s in doc["alphabet"] if s != words[i][t]]))
        words[i] = words[i][:t] + other + words[i][t + 1 :]
        Path(words_file).write_text("\n".join(words) + "\n")
        assert main(["verify", *ver]) == 1


def test_balanced_order_five_generates_and_verifies(capsys, tmp_path):
    # the backtracking avoiding-cycle search never finished this request
    out_file = tmp_path / "words.txt"
    assert main(["generate", "--family", "balanced-de-bruijn", "-c", "2", "-b", "2", "-k", "5",
                 "-o", str(out_file)]) == 0
    assert main(["verify", "--property", "balanced", "--sigma", "4", "-k", "5", "-b", "2",
                 "--ell", "1", "--words-file", str(out_file)]) == 0
    capsys.readouterr()


def test_family_aliases_match_long_names(capsys):
    _, long_form = run(capsys, "generate", "--family", "de-bruijn", "--sigma", "3")
    _, short_form = run(capsys, "generate", "--family", "ortho-db", "--sigma", "3")
    assert long_form == short_form


# ----------------------------------------------------------------------
# determinism


def test_identical_runs_are_byte_identical(capsys, tmp_path):
    argv = [
        "generate", "--family", "kautz", "--sigma", "4", "-k", "2", "--ell", "2",
        "--format", "json",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(argv + ["-o", str(first)]) == 0
    assert main(argv + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


# ----------------------------------------------------------------------
# one parser per process


def test_cached_parser_keeps_no_words_between_verify_calls(capsys):
    # --word appends to a default list, so a shared parser must not grow it
    verify = ["verify", "--property", "de-bruijn", "--sigma", "3", "-k", "2"]
    assert run(capsys, *verify, "--word", "012002211") == (0, "PASS  de_bruijn(3,2)\n")
    code, out = run(capsys, *verify, "--word", "012002212")
    assert code == 1 and out.splitlines() == ["FAIL  de_bruijn(3,2)  witness='12'"]
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["verify", "--property", "kautz"]).word == []


def test_generate_after_verify_gets_its_own_defaults(capsys):
    code, _ = run(
        capsys, "verify", "--property", "de-bruijn", "--sigma", "3", "-k", "3", "--ell", "2",
        "--word", "012002211", "--format", "json",
    )
    assert code == 1
    assert run(capsys, "generate", "--family", "de-bruijn", "--sigma", "3") == (
        0, "010211220\n011002212\n"
    )
    args = build_parser().parse_args(["generate", "--family", "de-bruijn"])
    assert (args.k, args.ell, args.format, args.sigma) == (2, 1, "text", None)
    assert not hasattr(args, "word") and not hasattr(args, "property")


def test_usage_errors_on_the_cached_parser_still_exit_two(capsys):
    for _ in range(2):
        assert main(["generate", "--family", "mystery", "--sigma", "3"]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["verify", "--sigma", "3"]) == 2
        assert "--property" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert run(capsys, "generate", "--family", "de-bruijn", "--sigma", "3")[0] == 0


def test_subcommands_are_looked_up_per_call(capsys, monkeypatch):
    # a wrapper installed after the parser was built still sees the call
    build_parser()
    seen = []
    monkeypatch.setattr("orthoseq.cli.cmd_export", lambda args: seen.append(args.k) or 0)
    assert main(["export", "--sigma", "2", "-k", "3"]) == 0
    assert seen == [3]


# ----------------------------------------------------------------------
# output formats


def test_generate_json_document(capsys):
    code, out = run(
        capsys, "generate", "--family", "de-bruijn", "--sigma", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma"] == 3 and doc["k"] == 2
    assert doc["count"] == len(doc["words"]) == 2
    assert all(report["holds"] for report in doc["certificate"])


def test_generate_csv(capsys):
    code, out = run(
        capsys, "generate", "--family", "de-bruijn", "--sigma", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,length,word"
    assert lines[1] == "0,9,010211220"


def test_generate_fasta_uses_canonical_rotation(capsys):
    code, out = run(
        capsys, "generate", "--family", "de-bruijn", "--sigma", "3", "--format", "fasta"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith(">de-bruijn_0 ")
    assert "linearized at canonical rotation" in lines[0]
    # 001021122 is the least rotation of the generated word 010211220
    assert lines[1] == "001021122"


def test_verify_json_reports(capsys):
    code, out = run(
        capsys, "verify", "--property", "de-bruijn", "--sigma", "3", "-k", "2",
        "--word", "012002211", "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert reports and all(r["holds"] for r in reports)


def test_enumerate_counts_all_coverings(capsys):
    code, out = run(capsys, "enumerate", "--sigma", "3", "-k", "2")
    assert code == 0
    assert len(out.splitlines()) == 24


def test_enumerate_csv_and_guard(capsys):
    code, out = run(capsys, "enumerate", "--sigma", "2", "-k", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "index,length,word"
    assert len(out.splitlines()) == 3
    assert main(["enumerate", "--sigma", "3", "-k", "2", "--max-results", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("k", ["10", "11"])
def test_enumerate_deep_language_stops_at_the_guard(capsys, k):
    # a succession of 2^k words is deeper than Python's default recursion limit
    assert main(["enumerate", "--sigma", "2", "-k", k, "--max-results", "1"]) == 2
    assert capsys.readouterr().err == "error: more than 1 sequences\n"


def test_export_dot(capsys):
    code, out = run(capsys, "export", "--sigma", "3", "-k", "2")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 9


def test_export_json(capsys):
    code, out = run(capsys, "export", "--dna", "-k", "3", "--kautz", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 12
    assert len(doc["arcs"]) == 36


def test_export_weight_band_graph(capsys):
    code, out = run(
        capsys, "export", "--dna", "-k", "3", "--kautz", "--band", "1", "1"
    )
    assert code == 0
    assert out.count("->") == 16  # the weight-1 adjacent-distinct 3-words
