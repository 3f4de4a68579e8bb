"""Seeded request streams for the three benchmark workloads.

A workload is a sequence of rounds.  Every round holds each entry of each
size class's pool once (the ``small`` class of ``cycles`` three times), so
every seed carries the same class mix and the same work; the seed picks the
order of each round and the parameters that do not change the cost: alphabet
token orders, the weighted symbol pair, and where each run starts in the
cycle of corrupted files fed to ``verify``.

Requests reach orthoseq only through its public API (``orthoseq.construct``,
``orthoseq.cli.main``) or as a fresh ``python -m orthoseq.cli`` process.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import orthoseq  # noqa: E402
import orthoseq.cli  # noqa: E402

DIGITS36 = "0123456789abcdefghijklmnopqrstuvwxyz"
DNA = ("A", "T", "C", "G")
DNA_WEIGHTED = (2, 3)  # C, G: what --dna selects
CORRUPT_VARIANTS = 8

# surgery: in-process construct() calls, rewiring-based families only
SURGERY = {
    "ortho-de-bruijn": [
        {"family": "de-bruijn", "sigma": s, "k": k, "ell": ell}
        for s, k in ((3, 6), (4, 5), (5, 4), (6, 4), (8, 3), (9, 3))
        for ell in (1, 2, 4)
    ],
    "ortho-kautz": [
        {"family": "kautz", "sigma": s, "k": k, "ell": ell}
        for s, k in ((4, 5), (5, 5), (6, 4), (8, 3))
        for ell in (1, 2)
    ],
    "fixed-weight": [
        {"family": "fixed-weight-de-bruijn", "sigma": 4, "k": k, "weight": w}
        for k in (5, 6)
        for w in range(1, k + 1)
    ],
    "balanced-kautz": [
        {"family": "balanced-kautz", "c": c, "b": b, "k": k}
        for c, b, k in ((2, 2, 3), (1, 3, 3), (3, 1, 3))
    ],
    "large": [{"family": "de-bruijn", "sigma": 5, "k": 5, "ell": ell} for ell in (1, 2, 4)],
}

# cycles: `orthoseq generate --family balanced-de-bruijn`, one process each;
# entries are (c, b, k, sigma the construction uses)
CYCLES = {
    "search": [(2, 2, 3, 4), (2, 6, 3, 12)],
    "composition": [(2, 10, 2, 20), (2, 14, 2, 28), (2, 18, 2, 36), (2, 10, 3, 20)],
    "small": [(2, 2, 1, 4), (2, 2, 2, 4), (2, 6, 1, 12), (2, 6, 2, 12), (3, 2, 1, 7)] * 3,
}

# roundtrip: generate / verify cases (name, family, parameters) and enumerations
ROUNDTRIP = (
    ("balanced-2-6-2", "balanced-de-bruijn", {"c": 2, "b": 6, "k": 2, "sigma": 12}),
    ("balanced-2-10-2", "balanced-de-bruijn", {"c": 2, "b": 10, "k": 2, "sigma": 20}),
    ("fw-kautz-6", "fixed-weight-kautz", {"k": 6, "sigma": 4}),  # band [1, k-1]
    ("fw-kautz-7", "fixed-weight-kautz", {"k": 7, "sigma": 4}),
    ("de-bruijn-3-6", "de-bruijn", {"sigma": 3, "k": 6, "ell": 1}),
    ("de-bruijn-7-3", "de-bruijn", {"sigma": 7, "k": 3, "ell": 1}),
)
FORMATS = ("text", "json", "csv", "fasta")
# enumerate (sigma, k), in every format: its renderers are separate from generate's
ENUMERATE = ((2, 4), (2, 5), (3, 2))

WORKLOADS = ("surgery", "cycles", "roundtrip")


@dataclass
class Request:
    """One request and what the independent check expects of it.

    ``spec`` describes the collection the output must be (see check.py);
    ``output`` is the file a CLI op writes, ``None`` for stdout.
    """

    cls: str
    op: str  # construct | generate | verify | enumerate
    params: Optional[dict] = None  # construct
    argv: Optional[list] = None  # CLI ops
    spec: Optional[dict] = None
    fmt: str = "text"
    output: Optional[str] = None
    fresh_process: bool = False
    expect_code: int = 0
    read_symbols: int = 0  # symbols of the words a verify op checks

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def de_bruijn_count(sigma: int, k: int) -> int:
    """Number of (sigma, k) de Bruijn sequences up to rotation."""
    return math.factorial(sigma) ** (sigma ** (k - 1)) // sigma**k


def mutate(word: tuple, rng: random.Random, sigma: int) -> tuple:
    """Substitute one symbol of `word` by a different one."""
    pos = rng.randrange(len(word))
    new = rng.choice([s for s in range(sigma) if s != word[pos]])
    return word[:pos] + (new,) + word[pos + 1 :]


def _surgery_spec(p: dict) -> dict:
    fam = p["family"]
    if fam == "de-bruijn":
        return {"property": "de-bruijn", "sigma": p["sigma"], "k": p["k"], "ell": p["ell"]}
    if fam == "kautz":
        return {"property": "kautz", "sigma": p["sigma"], "k": p["k"], "ell": p["ell"]}
    if fam == "fixed-weight-de-bruijn":
        return {
            "property": "weight-band", "sigma": 4, "k": p["k"], "ell": 1,
            "band": [p["weight"] - 1, p["weight"]], "weighted": p["weighted"], "kautz": False,
        }
    sigma = 2 * p["c"] * p["b"] + 1
    return {"property": "balanced-kautz", "sigma": sigma, "k": p["k"], "b": p["b"], "ell": 1}


class Workload:
    """The seeded request stream of one workload, plus its prepared files."""

    def __init__(self, name: str, seed: int, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.workdir = Path(workdir)
        self.cases: dict = {}
        self.workdir.mkdir(parents=True, exist_ok=True)
        if name == "roundtrip":
            self._prepare_roundtrip()

    def _rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{tag}")

    # -- rounds ---------------------------------------------------------

    def round(self, r: int) -> list[Request]:
        rng = self._rng(r)
        reqs = getattr(self, f"_{self.name}_round")(rng, r)
        rng.shuffle(reqs)
        return reqs

    def _surgery_round(self, rng, r) -> list[Request]:
        reqs = []
        for cls, pool in SURGERY.items():
            for params in pool:
                params = dict(params)
                if params["family"] == "fixed-weight-de-bruijn":
                    params["weighted"] = sorted(rng.sample(range(len(DNA)), 2))
                reqs.append(Request(cls, "construct", params=params, spec=_surgery_spec(params)))
        return reqs

    def _cycles_round(self, rng, r) -> list[Request]:
        reqs = []
        for cls, pool in CYCLES.items():
            for c, b, k, sigma in pool:
                tokens = "".join(rng.sample(DIGITS36, sigma))
                argv = [
                    "generate", "--family", "balanced-de-bruijn",
                    "-c", str(c), "-b", str(b), "-k", str(k), "--alphabet", tokens,
                ]
                spec = {
                    "property": "balanced", "sigma": sigma, "k": k, "b": b, "ell": 1,
                    "count": c, "tokens": tokens,
                }
                reqs.append(Request(cls, "generate", argv=argv, spec=spec, fresh_process=True))
        return reqs

    def _roundtrip_round(self, rng, r) -> list[Request]:
        reqs = []
        for name, case in self.cases.items():
            for fmt in FORMATS:
                out = str(self.workdir / f"{name}.{fmt}")
                argv = case["generate"] + ["--format", fmt, "-o", out]
                reqs.append(Request("generate", "generate", argv=argv, spec=case["spec"],
                                    fmt=fmt, output=out))
            variant = (r + case["offset"]) % CORRUPT_VARIANTS
            for path, code in ((case["intact"], 0), (case["corrupted"][variant], 1)):
                report = str(self.workdir / f"{name}.report")
                argv = case["verify"] + ["--words-file", path, "-o", report]
                reqs.append(Request("verify", "verify", argv=argv, output=report,
                                    expect_code=code, read_symbols=case["symbols"]))
        for sigma, k, tokens in self.enumerations:
            spec = {"property": "de-bruijn", "sigma": sigma, "k": k,
                    "count": de_bruijn_count(sigma, k), "tokens": tokens, "distinct": True}
            for fmt in FORMATS:
                out = str(self.workdir / f"enumerate-{sigma}-{k}.{fmt}")
                argv = ["enumerate", "--alphabet", tokens, "-k", str(k), "--format", fmt, "-o", out]
                reqs.append(Request("enumerate", "enumerate", argv=argv, spec=spec, fmt=fmt,
                                    output=out))
        return reqs

    # -- roundtrip files ------------------------------------------------

    def _prepare_roundtrip(self) -> None:
        """Seeded alphabets, the words files verify reads (intact, and eight
        variants with one substituted symbol), and the expected member counts."""
        rng = self._rng("setup")
        for name, family, p in ROUNDTRIP:
            k, sigma = p["k"], p["sigma"]
            if family == "fixed-weight-kautz":
                band = (1, k - 1)
                tokens = "".join(DNA)
                alpha_args = ["--dna"]
                alphabet = orthoseq.Alphabet(DNA, frozenset(DNA_WEIGHTED))
                request = orthoseq.OrthogonalCollectionRequest(
                    family, sigma=sigma, k=k, weight_band=band, alphabet=alphabet)
                gen = ["--band", str(band[0]), str(band[1])]
                ver = ["--property", "fixed-weight-kautz", "--band", str(band[0]), str(band[1])]
                spec = {"property": "weight-band", "sigma": sigma, "k": k, "ell": 1,
                        "band": list(band), "weighted": list(DNA_WEIGHTED), "kautz": True}
            else:
                tokens = "".join(rng.sample(DIGITS36, sigma))
                alpha_args = ["--alphabet", tokens]
                alphabet = orthoseq.Alphabet(tuple(tokens))
                request = orthoseq.OrthogonalCollectionRequest(
                    family, sigma=sigma, k=k, ell=p.get("ell", 1), c=p.get("c"), b=p.get("b"),
                    alphabet=alphabet)
                if family == "de-bruijn":
                    gen = ["--ell", "1"]
                    ver = ["--property", "de-bruijn"]
                    spec = {"property": "de-bruijn", "sigma": sigma, "k": k, "ell": 1}
                else:
                    gen = ["-c", str(p["c"]), "-b", str(p["b"])]
                    ver = ["--property", "balanced", "-b", str(p["b"])]
                    spec = {"property": "balanced", "sigma": sigma, "k": k, "b": p["b"], "ell": 1}
            result = orthoseq.construct(request)
            words = [tuple(w) for w in result.words]
            spec.update(count=result.info["count"], tokens=tokens)
            intact = self.workdir / f"{name}.words"
            intact.write_text("".join(alphabet.render(w) + "\n" for w in words))
            # the corruption's position sets the cost of finding a witness, so the
            # variants are fixed and every run cycles through all of them
            fixed = random.Random(f"corrupt/{name}")
            corrupted = []
            for v in range(CORRUPT_VARIANTS):
                bad = list(words)
                i = fixed.randrange(len(bad))
                bad[i] = mutate(bad[i], fixed, sigma)
                path = self.workdir / f"{name}.bad{v}.words"
                path.write_text("".join(alphabet.render(w) + "\n" for w in bad))
                corrupted.append(str(path))
            self.cases[name] = {
                "generate": ["generate", "--family", family, *alpha_args, "-k", str(k), *gen],
                "verify": ["verify", *ver, *alpha_args, "-k", str(k), "--ell", "1"],
                "spec": spec,
                "intact": str(intact),
                "corrupted": corrupted,
                "offset": rng.randrange(CORRUPT_VARIANTS),
                "symbols": sum(len(w) for w in words),
            }
        self.enumerations = [
            (sigma, k, "".join(rng.sample(DIGITS36, sigma))) for sigma, k in ENUMERATE
        ]

    # -- execution ------------------------------------------------------

    def call(self, req: Request, spans_path: Optional[Path] = None):
        """Return a zero-argument callable that issues `req`.

        Names are looked up when the callable runs, so a tracer installed
        in between sees the call.  For a fresh process, `spans_path` asks the
        traced child runner to write its spans there.
        """
        if req.op == "construct":
            request = _construct_request(req.params)
            return lambda: orthoseq.construct(request)
        if not req.fresh_process:
            return lambda: orthoseq.cli.main(list(req.argv))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        if spans_path is None:
            cmd = [sys.executable, "-m", "orthoseq.cli", *req.argv]
        else:
            cmd = [sys.executable, str(ROOT / "bench" / "child.py"), str(spans_path), *req.argv]
        return lambda: subprocess.run(cmd, env=env, capture_output=True, text=True)


def _construct_request(params: dict):
    p = dict(params)
    weighted = p.pop("weighted", None)
    if weighted is not None:
        p["alphabet"] = orthoseq.Alphabet(DNA, frozenset(weighted))
    return orthoseq.OrthogonalCollectionRequest(**p)
