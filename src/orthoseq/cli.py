"""Command line interface.

Subcommands
-----------
generate   construct a certified collection for a family
verify     run the brute-force oracle on given words, report pass/fail
enumerate  list all circular words covering a small language exactly once
export     write a word graph as DOT or JSON

Exit codes: 0 success, 1 a verified property does not hold, 2 usage or
parameter errors (including exceeded search guards), 3 internal certification
failure or any other internal error, 141 (128 + SIGPIPE) a closed stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .alphabet import (
    Alphabet,
    LanguageSpec,
    Word,
    default_alphabet,
    dna_alphabet,
    expand_language,
)
from .constructions import FAMILIES, OrthogonalCollectionRequest, construct
from .errors import CertificationError, OrthoseqError, ParameterOutOfRange
from .graphs import build_restricted_graph
from . import verify as verify_mod

PROPERTIES = (
    "de-bruijn",
    "kautz",
    "balanced",
    "balanced-kautz",
    "self-orthogonal",
    "orthogonal",
    "fixed-weight",
    "fixed-weight-kautz",
)


@functools.cache  # one parser per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoseq",
        description="Construct and verify orthogonal de Bruijn and Kautz sequence collections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    alpha = argparse.ArgumentParser(add_help=False)
    alpha.add_argument("--sigma", type=int, help="alphabet size (digits 0-9a-z)")
    alpha.add_argument("--alphabet", help="explicit alphabet, one character per symbol")
    alpha.add_argument("--dna", action="store_true", help="alphabet ATCG with W = {C, G}")
    alpha.add_argument("--weighted", help="characters forming the weighted class W")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--output", "-o", help="write to this file instead of stdout")

    gen = sub.add_parser("generate", parents=[alpha, out], help="construct a collection")
    names = [f.name for f in FAMILIES] + [alias for f in FAMILIES for alias in f.aliases]
    gen.add_argument("--family", choices=names, required=True)
    gen.add_argument("-k", type=int, default=2, help="window order k (default 2)")
    gen.add_argument("--ell", type=int, default=1, help="orthogonality level (default 1)")
    gen.add_argument("-c", type=int, help="number of sequences (balanced families)")
    gen.add_argument("-b", type=int, help="occurrences of each k-word (balanced families)")
    gen.add_argument("--weight", type=int, help="target weight w (fixed-weight family)")
    gen.add_argument(
        "--band", type=int, nargs=2, metavar=("MIN", "MAX"), help="weight band (fixed-weight Kautz)"
    )
    gen.add_argument("--format", choices=("text", "json", "csv", "fasta"), default="text")

    ver = sub.add_parser("verify", parents=[alpha, out], help="check properties of given words")
    ver.add_argument("--property", choices=PROPERTIES, required=True)
    ver.add_argument("-k", type=int, default=2, help="window order k (default 2)")
    ver.add_argument("--ell", type=int, help="also check ell-orthogonality of the collection")
    ver.add_argument("-b", type=int, help="balance parameter")
    ver.add_argument("--weight", type=int, help="target weight w (fixed-weight)")
    ver.add_argument("--band", type=int, nargs=2, metavar=("MIN", "MAX"))
    ver.add_argument("--word", action="append", default=[], help="a word (repeatable)")
    ver.add_argument("--words-file", help="file with one word per line, # comments allowed")
    ver.add_argument("--format", choices=("text", "json"), default="text")

    enu = sub.add_parser(
        "enumerate", parents=[alpha, out], help="list all coverings of a small language"
    )
    enu.add_argument("-k", type=int, required=True, help="word length of the language")
    enu.add_argument("--kautz", action="store_true", help="no two adjacent equal symbols")
    enu.add_argument("--band", type=int, nargs=2, metavar=("MIN", "MAX"), help="weight band")
    enu.add_argument("--max-results", type=int, default=10_000)
    enu.add_argument("--format", choices=("text", "json", "csv", "fasta"), default="text")

    exp = sub.add_parser("export", parents=[alpha, out], help="write the word graph")
    exp.add_argument("-k", type=int, required=True, help="word length (arcs are k-words)")
    exp.add_argument("--kautz", action="store_true")
    exp.add_argument("--band", type=int, nargs=2, metavar=("MIN", "MAX"))
    exp.add_argument("--format", choices=("dot", "json"), default="dot")

    return parser


# ----------------------------------------------------------------------
# shared argument handling


def _alphabet_from_args(args, required: bool = True) -> Optional[Alphabet]:
    if args.dna and (args.sigma not in (None, 4)):
        raise ParameterOutOfRange("--dna fixes sigma = 4")
    if args.alphabet is not None and args.sigma is not None and len(args.alphabet) != args.sigma:
        raise ParameterOutOfRange("--sigma disagrees with --alphabet length")
    if args.dna:
        base = dna_alphabet()
        tokens = base.tokens
        weighted = base.weighted
    elif args.alphabet is not None:
        if "#" in args.alphabet:  # a word starting with it would read as a comment
            raise ParameterOutOfRange(
                "--alphabet may not hold '#', which starts a comment in --words-file")
        tokens = tuple(args.alphabet)
        weighted = frozenset()
    elif args.sigma is not None:
        tokens = default_alphabet(args.sigma).tokens
        weighted = frozenset()
    else:
        if required:
            raise ParameterOutOfRange("specify an alphabet via --sigma, --alphabet, or --dna")
        return None
    if args.weighted is not None:
        index = {t: i for i, t in enumerate(tokens)}
        try:
            weighted = frozenset(index[ch] for ch in args.weighted)
        except KeyError as exc:
            raise ParameterOutOfRange(f"weighted symbol {exc.args[0]!r} not in alphabet") from None
    return Alphabet(tokens, weighted)


def _emit(text: str, args) -> None:
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:  # an unusable output path is a usage error
            raise ParameterOutOfRange(str(exc)) from None
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's last flush


def _read_words(args, alphabet: Alphabet) -> list[tuple[int, ...]]:
    words = [alphabet.parse(w) for w in args.word]
    if args.words_file:
        try:
            text = Path(args.words_file).read_text()
        except OSError as exc:
            raise ParameterOutOfRange(str(exc)) from None
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                words.append(alphabet.parse(line))
    if not words:
        raise ParameterOutOfRange("no words given; use --word or --words-file")
    return words


_SCALARS = {str, int, float, bool, type(None)}


def _dump_json(obj, indent: str = "") -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``, at C speed.

    Given indent=, the json module takes its pure-Python encoder.  So this
    walks the containers itself and hands each str-keyed dict or list of
    scalars to the C encoder, with newline and indentation as the item
    separator.  Anything else is dumped whole and re-indented, which is safe
    because a JSON string never holds a raw newline.
    """
    inner = indent + "  "
    if type(obj) is dict and obj and set(map(type, obj)) <= {str}:
        if set(map(type, obj.values())) <= _SCALARS:
            body = json.dumps(obj, sort_keys=True, separators=(",\n" + inner, ": "))[1:-1]
        else:
            body = (",\n" + inner).join(
                f"{json.dumps(key)}: {_dump_json(obj[key], inner)}" for key in sorted(obj)
            )
        return "{\n" + inner + body + "\n" + indent + "}"
    if type(obj) in (list, tuple) and obj:
        if set(map(type, obj)) <= _SCALARS:
            body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        else:
            body = (",\n" + inner).join(_dump_json(item, inner) for item in obj)
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _render(words: list[Word], alphabet: Alphabet, fmt: str, fasta_header, json_doc) -> str:
    """Circular words as text, csv, fasta or json.

    fasta_header is the (record name, description) pair of every fasta record,
    whose words the caller gives at their least rotation; json_doc(rendered_words)
    builds the JSON document and runs only for json.
    """
    rendered = list(alphabet.render_many(w.entries for w in words))
    if fmt == "fasta":
        name, description = fasta_header
        return "".join(
            f">{name}_{i} {description} [circular; linearized at canonical rotation]\n{r}\n"
            for i, r in enumerate(rendered)
        )
    if fmt == "json":
        return _dump_json(json_doc(rendered)) + "\n"
    if fmt == "csv":
        lines = ["index,length,word"]
        lines += [f"{i},{len(w)},{r}" for i, (w, r) in enumerate(zip(words, rendered))]
        return "\n".join(lines) + "\n"
    return "".join(r + "\n" for r in rendered)


# ----------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    family = next(f for f in FAMILIES if args.family in (f.name, *f.aliases))
    needs = {field_name for field_name, _ in family.needs}
    weighted = "alphabet" in needs
    alphabet = _alphabet_from_args(args, required=weighted or "sigma" in needs)
    if weighted and (alphabet is None or not alphabet.weighted or not alphabet.unweighted):
        raise ParameterOutOfRange(
            "fixed-weight families need an alphabet with a weighted class (--dna or --weighted)"
        )
    request = OrthogonalCollectionRequest(
        family=family.name,
        sigma=alphabet.sigma if alphabet else None,
        k=args.k,
        ell=args.ell,
        c=args.c,
        b=args.b,
        weight=args.weight,
        weight_band=tuple(args.band) if args.band else None,
        alphabet=alphabet,
    )
    result = construct(request)
    alphabet = result.alphabet
    meta = " ".join(f"{k}={v}" for k, v in sorted(result.parameters.items()))
    # fasta linearizes each circular word at its least rotation
    words = [w.canonical() for w in result.words] if args.format == "fasta" else result.words
    text = _render(
        words,
        alphabet,
        args.format,
        (result.family, meta),
        lambda rendered: {
            "family": result.family,
            "parameters": result.parameters,
            "sigma": result.sigma,
            "k": result.k,
            "alphabet": list(alphabet.tokens),
            "weighted": sorted(alphabet.weighted),
            "count": len(result.words),
            "lengths": [len(w) for w in result.words],
            "words": rendered,
            "info": result.info,
            "certificate": [r.to_json_dict(alphabet) for r in result.certificate],
            "provenance": result.provenance,
        },
    )
    _emit(text, args)
    return 0


def cmd_verify(args) -> int:
    alphabet = _alphabet_from_args(args)
    sigma = alphabet.sigma
    k = args.k
    words = _read_words(args, alphabet)
    reports = []
    prop = args.property
    if prop in ("fixed-weight", "fixed-weight-kautz"):
        if prop == "fixed-weight":
            if args.weight is None:
                raise ParameterOutOfRange("--weight is required for fixed-weight")
            band = (args.weight - 1, args.weight)
            kind = "full"
        else:
            if args.band is None:
                raise ParameterOutOfRange("--band is required for fixed-weight-kautz")
            band = tuple(args.band)
            kind = "kautz"
        if not alphabet.weighted:
            raise ParameterOutOfRange("weight properties need a weighted class")
        spec = LanguageSpec(kind, k, min_weight=band[0], max_weight=band[1])
        language = expand_language(spec, alphabet)
        reports += [verify_mod.is_fixed_weight_db(w, language) for w in words]
    elif prop == "de-bruijn":
        reports += [verify_mod.is_de_bruijn(w, sigma, k) for w in words]
    elif prop == "kautz":
        reports += [verify_mod.is_kautz_word(w, sigma, k) for w in words]
    elif prop == "balanced":
        if args.b is None:
            raise ParameterOutOfRange("-b is required for balanced")
        reports += [verify_mod.is_b_balanced(w, sigma, k, args.b) for w in words]
        reports += [verify_mod.is_self_orthogonal(w, k) for w in words]
    elif prop == "balanced-kautz":
        if args.b is None:
            raise ParameterOutOfRange("-b is required for balanced-kautz")
        reports += [verify_mod.is_b_balanced_kautz(w, sigma, k, args.b) for w in words]
        reports += [verify_mod.is_self_orthogonal(w, k) for w in words]
    elif prop == "self-orthogonal":
        reports += [verify_mod.is_self_orthogonal(w, k) for w in words]
    if prop == "orthogonal" or args.ell is not None:
        reports.append(verify_mod.is_l_orthogonal(words, k, 1 if args.ell is None else args.ell))

    if args.format == "json":
        doc = [r.to_json_dict(alphabet) for r in reports]
        _emit(_dump_json(doc) + "\n", args)
    else:
        lines = []
        for r in reports:
            line = f"{'PASS' if r.holds else 'FAIL'}  {r.property}"
            if not r.holds:  # render the witness alone, not the whole histogram
                witness = dataclasses.replace(r, counts=None).to_json_dict(alphabet).get("witness")
                line += f"  witness={witness!r}"
            lines.append(line)
        _emit("".join(line + "\n" for line in lines), args)
    return 0 if all(r.holds for r in reports) else 1


def _language_from_args(args, alphabet: Alphabet):
    kind = "kautz" if args.kautz else "full"
    band = tuple(args.band) if args.band else (None, None)
    spec = LanguageSpec(kind, args.k, min_weight=band[0], max_weight=band[1])
    language = expand_language(spec, alphabet)
    if not language:
        raise ParameterOutOfRange("the requested language is empty")
    return language


def cmd_enumerate(args) -> int:
    alphabet = _alphabet_from_args(args)
    language = _language_from_args(args, alphabet)
    found = verify_mod.enumerate_db_words(language, max_results=args.max_results)
    text = _render(
        found,
        alphabet,
        args.format,
        ("covering", f"k={args.k}"),
        lambda rendered: {
            "k": args.k,
            "language_size": len(language),
            "count": len(found),
            "words": rendered,
        },
    )
    _emit(text, args)
    return 0


def cmd_export(args) -> int:
    alphabet = _alphabet_from_args(args)
    language = _language_from_args(args, alphabet)
    kind = "kautz" if args.kautz else "de_bruijn"
    graph = build_restricted_graph(language, kind=kind, sigma=alphabet.sigma)
    if args.format == "json":
        _emit(_dump_json(graph.to_json_dict(alphabet)) + "\n", args)
    else:
        _emit(graph.to_dot(alphabet, name=f"{kind}_k{args.k}"), args)
    return 0


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # looked up per call, so the cached parser binds no subcommand function
        return globals()[f"cmd_{args.command}"](args)
    except CertificationError as exc:
        print(f"error: internal certification failure: {exc}", file=sys.stderr)
        return 3
    except OrthoseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # a closed stdout (`| head`): 128 + SIGPIPE, and devnull for any later flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
