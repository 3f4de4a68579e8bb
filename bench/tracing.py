"""Spans around orthoseq's public functions, put in place from outside.

The package imports many names with ``from ... import``, so a wrapper has to
replace a function in every ``orthoseq`` module that holds it, not only in the
module that defines it.  :meth:`Tracer.install` does that and
:meth:`Tracer.uninstall` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, request, counts]``
(``parent`` an index into the list) and written out, in that form, when the
run ends.  A layer's time is the self time of its
spans: duration minus the time covered by direct child spans.  Wrappers only
record while the tracer is active (inside a request), so the benchmark's own
output checks, which call the same oracles, leave no spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

# span name, defining module, public functions wrapped under that name
WRAPPED = (
    ("cli.args", "orthoseq.cli", ("main",)),
    ("cli.render", "orthoseq.cli", ("cmd_generate", "cmd_enumerate")),
    ("cli.read", "orthoseq.cli", ("cmd_verify",)),
    (
        "constructions.self",
        "orthoseq.constructions",
        (
            "construct",
            "construct_l_orthogonal_de_bruijn",
            "construct_l_orthogonal_kautz",
            "construct_orthogonal_balanced_de_bruijn",
            "construct_orthogonal_balanced_kautz",
            "construct_fixed_weight_orthogonal_db",
            "construct_fixed_weight_kautz_orthogonal",
        ),
    ),
    (
        "constructions.avoiding_cycles",
        "orthoseq.constructions",
        ("find_arc_disjoint_avoiding_cycles",),
    ),
    (
        "constructions.combine",
        "orthoseq.constructions",
        ("build_b_circuit", "combine_closed_walks", "tensor_compose_b_circuits"),
    ),
    ("circuits.rewire", "orthoseq.circuits", ("rewire", "rewire_given")),
    ("circuits.convert", "orthoseq.circuits", ("word_to_circuit", "circuit_to_word")),
    ("circuits.eulerian", "orthoseq.circuits", ("find_eulerian_circuit",)),
    ("circuits.split", "orthoseq.circuits", ("split_vertices", "merge_circuit")),
    ("circuits.lift", "orthoseq.circuits", ("hamiltonian_from_eulerian",)),
    (
        "graphs.build",
        "orthoseq.graphs",
        (
            "build_de_bruijn_graph",
            "build_kautz_graph",
            "build_language_graph",
            "build_restricted_graph",
            "tensor_product",
        ),
    ),
    # named verify.check inside cmd_verify and verify.certify everywhere else
    (
        "verify.oracle",
        "orthoseq.verify",
        (
            "is_de_bruijn",
            "is_b_balanced",
            "is_kautz_word",
            "is_b_balanced_kautz",
            "is_fixed_weight_db",
            "is_self_orthogonal",
            "is_l_orthogonal",
            "are_compatible",
            "are_arc_disjoint",
            "is_b_circuit",
        ),
    ),
    ("verify.enumerate", "orthoseq.verify", ("enumerate_db_words",)),
    ("alphabet.expand", "orthoseq.alphabet", ("expand_language",)),
)

# every per-layer metric a traced run reports, in BENCHMARK.json order
PER_LAYER = (
    ("circuits.rewire.s", "s"),
    ("circuits.rewire.calls", "count"),
    ("circuits.rewire.arcs_scanned", "count"),
    ("constructions.avoiding_cycles.s", "s"),
    ("constructions.avoiding_cycles.calls", "count"),
    ("graphs.build.s", "s"),
    ("graphs.build.calls", "count"),
    ("graphs.build.arcs", "count"),
    ("circuits.convert.s", "s"),
    ("circuits.convert.calls", "count"),
    ("circuits.eulerian.s", "s"),
    ("circuits.split.s", "s"),
    ("circuits.lift.s", "s"),
    ("constructions.combine.s", "s"),
    ("constructions.self.s", "s"),
    ("verify.certify.s", "s"),
    ("verify.certify.calls", "count"),
    ("verify.certify.windows", "count"),
    ("verify.check.s", "s"),
    ("verify.check.calls", "count"),
    ("verify.check.failed", "count"),
    ("verify.enumerate.s", "s"),
    ("verify.enumerate.results", "count"),
    ("alphabet.expand.s", "s"),
    ("alphabet.expand.words", "count"),
    ("cli.args.s", "s"),
    ("cli.render.s", "s"),
    ("cli.render.bytes", "count"),
    ("cli.read.s", "s"),
    ("process.start.s", "s"),
    ("unattributed.s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def _symbols(obj) -> int:
    """Symbols an oracle scans: one word or circuit, or a whole collection."""
    if isinstance(obj, (list, tuple)) and obj and not isinstance(obj[0], int):
        return sum(len(x) for x in obj)
    return len(obj)


def _output_bytes(args) -> int:
    path = getattr(args, "output", None)
    return os.path.getsize(path) if path and os.path.exists(path) else 0


# span name -> counters taken from the wrapped call's arguments and result
COUNTERS = {
    "circuits.rewire": lambda a, r: {"arcs_scanned": len(a[1])},
    "graphs.build": lambda a, r: {"arcs": r.num_arcs},
    "verify.certify": lambda a, r: {"windows": _symbols(a[0])},
    "verify.check": lambda a, r: {"failed": int(not r.holds)},
    "verify.enumerate": lambda a, r: {"results": len(r)},
    "alphabet.expand": lambda a, r: {"words": len(r)},
    "cli.render": lambda a, r: {"bytes": _output_bytes(a[0])},
}


class Tracer:
    """Records spans while active; owns the patches it made."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._request = None
        self._patches: list[tuple] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        import orthoseq.cli  # noqa: F401  (loads the package and every module in it)

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sys.modules.items() if n == "orthoseq" or n.startswith("orthoseq.")
        ]
        for name, home, functions in WRAPPED:
            for fname in functions:
                original = getattr(sys.modules[home], fname)
                wrapper = self._wrap(original, name)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = name
            if name == "verify.oracle":
                inside_read = any(self.spans[i][0] == "cli.read" for i in self._stack)
                span_name = "verify.check" if inside_read else "verify.certify"
            idx = self.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            counter = COUNTERS.get(span_name)
            if counter is not None:
                self.spans[idx][5] = counter(args, result)
            return result

        return traced

    # -- spans ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._request, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, request_id):
        """Root span of one request; wrappers record only inside it."""
        self._request = request_id
        self.active = True
        idx = self.open("request")
        try:
            yield idx
        finally:
            self.close(idx)
            self.active = False
            self._request = None

    def merge_child(self, child_spans: list, parent: int, stdout_bytes: int) -> None:
        """Graft the spans a traced child process wrote under `parent`.

        The child's root is its ``cli.args`` span (``main``); the rest of the
        child's wall time, start-up before main and shutdown after it, becomes
        ``process.start``.  Text written to stdout is counted as rendered bytes.
        """
        base = len(self.spans)
        request = self.spans[parent][4]
        for name, start, end, cparent, _, counts in child_spans:
            if name == "cli.render" and stdout_bytes:
                counts = {"bytes": stdout_bytes}
            cparent = parent if cparent is None else base + cparent
            self.spans.append([name, start, end, cparent, request, counts])
        roots = [s for s in child_spans if s[3] is None]
        main_start = min(s[1] for s in roots)
        main_end = max(s[2] for s in roots)
        for start, end in ((self.spans[parent][1], main_start), (main_end, self.spans[parent][2])):
            self.spans.append(["process.start", start, end, parent, request, None])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans: list, rounds: int) -> dict[str, float]:
    """Per-layer totals divided by the number of traced rounds.

    Calls and counters come from outermost spans of a name only, so a graph
    builder that calls another builder counts once.
    """
    own = self_times(spans)
    totals = {name: 0.0 for name, _ in PER_LAYER}
    for s, t in zip(spans, own):
        name, parent, counts = s[0], s[3], s[5]
        layer = "unattributed" if name == "request" else name
        if f"{layer}.s" in totals:
            totals[f"{layer}.s"] += t
        if parent is not None and spans[parent][0] == name:
            continue
        if f"{layer}.calls" in totals:
            totals[f"{layer}.calls"] += 1
        for key, value in (counts or {}).items():
            totals[f"{layer}.{key}"] += value
    return {name: value / rounds for name, value in totals.items() if name != "trace.overhead_frac"}
