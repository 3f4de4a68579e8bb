"""Independent check of every request's output, run outside the timed region.

Words are re-checked with the matching ``orthoseq.verify`` oracle; weight-band
languages are built here from scratch rather than with the package's own
``expand_language``.  The oracles are the specification: no golden words or
hashes are compared, so a construction may change its words and still pass.
"""

from __future__ import annotations

import functools
import itertools
import json
from pathlib import Path

from workloads import Request  # first: it puts the package source on sys.path

from orthoseq import verify


class CheckFailed(Exception):
    pass


@functools.lru_cache(maxsize=16)
def band_language(sigma: int, k: int, lo: int, hi: int, weighted: tuple, kautz: bool) -> tuple:
    """All k-words whose weight over `weighted` lies in [lo, hi]."""
    return tuple(
        w
        for w in itertools.product(range(sigma), repeat=k)
        if lo <= sum(s in weighted for s in w) <= hi
        and not (kautz and any(a == b for a, b in zip(w, w[1:])))
    )


def _word_reports(word, spec: dict) -> list:
    prop, sigma, k = spec["property"], spec["sigma"], spec["k"]
    if prop == "de-bruijn":
        return [verify.is_de_bruijn(word, sigma, k)]
    if prop == "kautz":
        return [verify.is_kautz_word(word, sigma, k)]
    if prop == "balanced":
        return [verify.is_b_balanced(word, sigma, k, spec["b"]), verify.is_self_orthogonal(word, k)]
    if prop == "balanced-kautz":
        return [verify.is_b_balanced_kautz(word, sigma, k, spec["b"])]
    if prop == "weight-band":
        lo, hi = spec["band"]
        language = band_language(sigma, k, lo, hi, tuple(spec["weighted"]), spec["kautz"])
        return [verify.is_fixed_weight_db(word, language)]
    raise ValueError(f"unknown property {prop!r}")


def check_collection(words: list, spec: dict, count: int) -> None:
    """Raise CheckFailed unless `words` is a collection of `count` members
    that each have the spec's property and, together, its orthogonality."""
    if len(words) != count:
        raise CheckFailed(f"{len(words)} members, expected {count}")
    for w in words:
        for report in _word_reports(w, spec):
            if not report.holds:
                raise CheckFailed(f"{report.property} fails, witness {report.witness!r}")
    if spec.get("ell"):
        report = verify.is_l_orthogonal(words, spec["k"], spec["ell"])
        if not report.holds:
            raise CheckFailed(f"{report.property} fails, witness {report.witness!r}")
    if spec.get("distinct"):
        rotations = {min(w[i:] + w[:i] for i in range(len(w))) for w in words}
        if len(rotations) != len(words):
            raise CheckFailed("repeated member (up to rotation)")


def parse_words(text: str, fmt: str, tokens: str) -> list[tuple]:
    """Words of a generate/enumerate output file, back in integer symbols."""
    if fmt == "json":
        doc = json.loads(text)
        lines = doc["words"]
        if doc["count"] != len(lines):
            raise CheckFailed(f"json count {doc['count']} but {len(lines)} words")
    elif fmt == "csv":
        rows = text.splitlines()
        if rows[0] != "index,length,word":
            raise CheckFailed(f"csv header {rows[0]!r}")
        lines = [row.split(",")[2] for row in rows[1:]]
    elif fmt == "fasta":
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith(">")]
    else:
        lines = [ln for ln in text.splitlines() if ln]
    index = {t: i for i, t in enumerate(tokens)}
    try:
        return [tuple(index[ch] for ch in line) for line in lines]
    except KeyError as exc:
        raise CheckFailed(f"symbol {exc.args[0]!r} not in the alphabet") from None


def check(req: Request, outcome) -> int:
    """Raise CheckFailed if the outcome is wrong; else return the symbols the
    request certified (written) or checked (read)."""
    if req.op == "construct":
        words = [tuple(w) for w in outcome.words]
        if outcome.info["count"] != len(words):
            raise CheckFailed(f"info count {outcome.info['count']} but {len(words)} words")
        check_collection(words, req.spec, len(words))
        return sum(len(w) for w in words)
    if req.fresh_process:
        code, text = outcome.returncode, outcome.stdout
    else:
        code = outcome
        text = Path(req.output).read_text() if req.output and code == req.expect_code else None
    if code != req.expect_code:
        raise CheckFailed(f"exit code {code}, expected {req.expect_code}")
    if req.op == "verify":
        statuses = [ln.split()[0] for ln in text.splitlines() if ln.strip()]
        expected_fail = req.expect_code == 1
        if not statuses or ("FAIL" in statuses) != expected_fail:
            raise CheckFailed(f"report {statuses} for exit code {code}")
        return req.read_symbols
    words = parse_words(text, req.fmt, req.spec["tokens"])
    check_collection(words, req.spec, req.spec["count"])
    return sum(len(w) for w in words)
