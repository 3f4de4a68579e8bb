"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import orthoseq  # noqa: E402


def _request_lists(name, seed, workdir, rounds=2):
    bench = workloads.Workload(name, seed, workdir)
    return [[r.to_json() for r in bench.round(i)] for i in range(rounds)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_requests(name, tmp_path):
    first = _request_lists(name, 7, tmp_path)
    assert _request_lists(name, 7, tmp_path) == first
    assert _request_lists(name, 8, tmp_path) != first


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_seed_carries_the_same_class_mix(name, tmp_path):
    mixes = []
    for seed in (1, 2):
        bench = workloads.Workload(name, seed, tmp_path / str(seed))
        for r in range(2):
            mixes.append(sorted(req.cls for req in bench.round(r)))
    assert all(m == mixes[0] for m in mixes)


def test_tail_percentile_leaves_ten_samples_above():
    for cap in (50, 75, 83, 90, 95, 99):
        for n in range(11, 3000):
            p = run.tail_percentile(n, cap)
            assert p <= cap
            rank = max(1, -(-p * n // 100))
            assert n - rank >= 10
    with pytest.raises(ValueError):
        run.tail_percentile(10, 90)


def test_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert run.nearest_rank(values, 90) == 90
    assert run.nearest_rank(values, 0) == 1


def test_checker_flags_a_one_symbol_mutation():
    result = orthoseq.construct_l_orthogonal_de_bruijn(3, 3, 1)
    words = [tuple(w) for w in result.words]
    spec = {"property": "de-bruijn", "sigma": 3, "k": 3, "ell": 1}
    check.check_collection(words, spec, len(words))
    bad = list(words)
    bad[1] = workloads.mutate(bad[1], random.Random(3), 3)
    with pytest.raises(check.CheckFailed):
        check.check_collection(bad, spec, len(bad))
    with pytest.raises(check.CheckFailed):
        check.check_collection(words, spec, len(words) + 1)


def test_checker_flags_a_wrong_exit_code(tmp_path):
    report = tmp_path / "report"
    report.write_text("PASS  de_bruijn(3,3)\n")
    req = workloads.Request("verify", "verify", argv=[], output=str(report), expect_code=1)
    with pytest.raises(check.CheckFailed):
        check.check(req, 0)
    req.expect_code = 0
    assert check.check(req, 0) == 0
    proc = type("Proc", (), {"returncode": 2, "stdout": ""})()
    fresh = workloads.Request("small", "generate", argv=[], fresh_process=True,
                              spec={"tokens": "01"})
    with pytest.raises(check.CheckFailed):
        check.check(fresh, proc)


def test_corrupted_roundtrip_files_fail_verify(tmp_path):
    bench = workloads.Workload("roundtrip", 5, tmp_path)
    for req in bench.round(0):
        if req.op == "verify":
            assert orthoseq.cli.main(req.argv) == req.expect_code
            check.check(req, req.expect_code)


def _namespaces():
    import orthoseq.cli  # noqa: F401

    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "orthoseq" or name.startswith("orthoseq.")
    }


def test_wrappers_restore_every_patched_attribute():
    before = _namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert orthoseq.cli.construct is not before["orthoseq.cli"]["construct"]
        assert orthoseq.circuits.rewire is not before["orthoseq.circuits"]["rewire"]
        assert orthoseq.construct is not before["orthoseq"]["construct"]
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys()
        changed = [a for a in before[name] if before[name][a] is not after[name][a]]
        assert changed == [], (name, changed)


def test_traced_request_spans_cover_its_time():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.request("r0") as root:
            orthoseq.construct(orthoseq.OrthogonalCollectionRequest("de-bruijn", sigma=4, k=3))
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert spans[root][0] == "request"
    assert all(s[4] == "r0" for s in spans)
    own = tracing.self_times(spans)
    assert sum(own) == pytest.approx(spans[root][2] - spans[root][1])
    layers = tracing.layer_metrics(spans, 1)
    assert layers["circuits.rewire.calls"] > 0
    assert layers["constructions.avoiding_cycles.calls"] == 0
    assert layers["verify.certify.calls"] > 0 and layers["verify.check.calls"] == 0


def test_oracles_under_cmd_verify_count_as_checks(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.request("r0"):
            code = orthoseq.cli.main(["verify", "--property", "de-bruijn", "--sigma", "3",
                                      "-k", "2", "--word", "012002212"])
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, 1)
    assert code == 1
    assert layers["verify.check.calls"] == 1 and layers["verify.check.failed"] == 1
    assert layers["verify.certify.calls"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_metric_in_benchmark_json(trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", "roundtrip", "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    listed = doc["per_layer"] if trace else doc["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in listed]
    assert all(last["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)


def test_child_process_spans_are_grafted(tmp_path):
    bench = workloads.Workload("cycles", 1, tmp_path)
    req = next(r for r in bench.round(0) if r.spec["k"] == 1 and r.spec["count"] == 2)
    spans_path = tmp_path / "child-spans.json"
    tracer = tracing.Tracer()
    with tracer.request("r0") as root:
        proc = bench.call(req, spans_path)()
    assert proc.returncode == 0, proc.stderr
    check.check(req, proc)
    tracer.merge_child(json.loads(spans_path.read_text()), root, len(proc.stdout.encode()))
    assert all(s[4] == "r0" for s in tracer.spans)
    layers = tracing.layer_metrics(tracer.spans, 1)
    assert layers["process.start.s"] > 0 and layers["cli.args.s"] > 0
    assert layers["constructions.avoiding_cycles.calls"] == 1
    assert layers["circuits.rewire.calls"] == 0
    assert layers["cli.render.bytes"] == len(proc.stdout.encode())
    assert layers["unattributed.s"] == pytest.approx(0, abs=1e-9)
