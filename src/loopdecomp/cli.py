"""Command-line surface: classify, decompose, verify.

All input and output documents are single JSON files.  Input complexes are
{"m": int, "facets": [[int, ...], ...]}.  Every --pairs kind is a list of
suspension dimensions per vertex: moment-angle is [2], disks:N is [N], and
custom:PATH holds {"suspensions": [[dims...] per vertex]}, which the output
echoes in place of the path.  --cutoff defaults to DEFAULT_CUTOFF, 20, the
one default cutoff: every library function takes its cutoff.  Exit codes: 0
success, 1 input error (a malformed command line too), 2 inadmissible
complex, 3 internal-check failure; each error is one line on stderr.
`main` reads and classifies the complex once and writes one document per
call.  An output is exactly the bytes of json.dumps(doc, indent=2) and a
newline; `_write` produces them, for the types a document holds (str, int,
bool, None, lists and dicts with str keys), without the standard library's
pure-Python indenting encoder, which took about a third of a call's time on
small inputs.  An --output file is written over in place and then cut to
length: truncating an existing file to zero made ext4 allocate its blocks
and start writeback on close, which cost more than building the text.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as _quote

from .complexes import (
    CLIQUE_BOUND,
    BadDocument,
    SimplicialComplex,
    TooLarge,
    classify_input,
    validate_complex,
)
from .engine import NotFlagSkeleton, PairSpec, decompose_loop, trace_to_doc
from .homotopy import NoSolution, NotCanonicalP
from .oracle import verify_against_oracle

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INADMISSIBLE = 2
EXIT_INTERNAL = 3

DEFAULT_CUTOFF = 20

# a sphere of dimension n in a pair gives a cell series of n terms, and
# every series the recursion builds from it grows with n
PAIR_DIM_BOUND = 1000
# engine._decompose recurses once per derivation level, about once per
# vertex on a path, and is the only code that does (the trace table and
# check_trace walk without recursion): a path on 496 vertices overflowed
# the recursion limit on Python 3.10, 3.11 and 3.13, and one on 256
# vertices runs on 3.10 to 3.13.  Classification's Bron-Kerbosch
# (complexes._expand_cliques) recurses once per clique vertex, at most m
# deep: decompose on the complete graph on 256 vertices exits 0
VERTEX_BOUND = 256
# every series is expanded through the cutoff D, with a product of
# coefficients of about D bits per degree and per denominator term: at
# D = 1000, verify takes 0.13 s on the 6-cycle, 0.45 s on the 12-cycle and
# 0.95 s on the 6-cycle under disks:1000, on one core of a 2-vCPU VM
CUTOFF_BOUND = 1000

# the other input errors, BadDocument and a JSON syntax error among them, are ValueErrors
_INPUT_ERRORS = (OSError, KeyError)
_INADMISSIBLE_ERRORS = (NotFlagSkeleton, TooLarge)
_INTERNAL_ERRORS = (NotCanonicalP, NoSolution)


def _read_json(path: str):
    """The JSON document in a file; one nested past the parser's recursion
    limit is a BadDocument."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise BadDocument(f"{path} nests too deeply") from None


def load_complex(path: str) -> SimplicialComplex:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise BadDocument("a complex is a JSON object {\"m\": ..., \"facets\": ...}")
    for key in ("m", "facets"):
        if key not in doc:
            raise BadDocument(f"a complex needs the key {key!r}")
    facets = doc["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise BadDocument("facets must be a list of vertex lists")
    # validation is quadratic in the facets; a flag complex's are its maximal cliques
    if len(facets) > CLIQUE_BOUND:
        raise TooLarge(f"{len(facets)} facets exceed the bound {CLIQUE_BOUND}")
    K = validate_complex(facets, doc["m"])
    if K.m > VERTEX_BOUND:
        raise TooLarge(f"m = {K.m} exceeds the bound {VERTEX_BOUND}")
    return K


def resolve_pairs(spec: str, m: int) -> tuple[PairSpec, str | dict]:
    """The pairs a --pairs spec names, and its echo in the output (disks:N
    with N written as an int, a custom file's dims, not its path); a sphere
    dimension above PAIR_DIM_BOUND is refused before any series is built."""
    if spec.startswith("custom:"):
        doc = _read_json(spec.split(":", 1)[1])
        dims = doc.get("suspensions") if isinstance(doc, dict) else None
        if not isinstance(dims, list) or not all(
            isinstance(ds, list) and all(type(d) is int for d in ds) for ds in dims
        ):
            raise BadDocument("suspensions must be a list of integer lists")
        if len(dims) != m:
            raise ValueError(f"custom pairs cover {len(dims)} vertices, need {m}")
        echo = {"suspensions": dims}
    elif spec == "moment-angle" or spec.startswith("disks:"):
        try:
            n = 2 if spec == "moment-angle" else int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"pair spec {spec!r} needs an integer disk dimension") from None
        # one vertex more, dropped below, so n is checked when m = 0 too;
        # int reads +3, 03 and 1_0 as well, so N is echoed in one spelling
        dims, echo = [[n]] * (m + 1), spec if spec == "moment-angle" else f"disks:{n}"
    else:
        raise ValueError(f"unknown pair spec {spec!r}")
    top = max((d for ds in dims for d in ds), default=0)
    if top > PAIR_DIM_BOUND:
        raise TooLarge(f"pair dimension {top} exceeds the bound {PAIR_DIM_BOUND}")
    return PairSpec.from_suspension_dims(dims).restrict((1 << m) - 1), echo


def _write(value, pad: str, out: list[str]) -> None:
    """Append the text json.dumps(value, indent=2) gives, nested at pad, to
    out.  Its domain is what a document holds: str, int, bool, None, and
    lists and dicts with str keys of these; any other type is a TypeError.
    A list of plain ints is one join."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if {*map(type, value)} == {int}:
            out.append("[\n" + inner + sep.join(map(str, value)) + "\n" + pad + "]")
            return
        out.append("[\n" + inner)
        for item in value:
            _write(item, inner, out)
            out.append(sep)
        out[-1] = "\n" + pad + "]"
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        out.append("{\n" + inner)
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(_quote(key) + ": ")
            _write(item, inner, out)
            out.append(sep)
        out[-1] = "\n" + pad + "}"
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise TypeError(f"a document holds no {kind.__name__}")


def _emit(doc: dict, output_path: str | None) -> None:
    out: list[str] = []
    _write(doc, "", out)
    out.append("\n")
    text = "".join(out)
    if not output_path:
        sys.stdout.write(text)
        return
    data = text.encode()  # ASCII: _quote escapes every other character
    fd = os.open(output_path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        # a pipe, a terminal or /dev/null has no length to cut
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line through main's one error path."""

    def error(self, message):
        raise ValueError(message)


@functools.cache  # building the parser costs far more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loopdecomp",
        description="Loop space decompositions of polyhedral products over "
        "skeleta of flag complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "decompose", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--input", dest="input_path")
        if name != "check":
            p.add_argument("--pairs", default="moment-angle")
            p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
        p.add_argument("--output", dest="output_path")
        if name == "decompose":
            p.add_argument("--trace", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.input_path is None:
            raise ValueError("--input is required")
        command = args.command
        if command != "check":
            if args.cutoff < 1:
                raise ValueError("cutoff must be >= 1")
            if args.cutoff > CUTOFF_BOUND:
                raise TooLarge(f"cutoff {args.cutoff} exceeds the bound {CUTOFF_BOUND}")
        K = load_complex(args.input_path)
        doc = {"command": command, "input": K.to_doc()}
        if command != "check":
            pairs, doc["pairs"] = resolve_pairs(args.pairs, K.m)
            doc["cutoff"] = args.cutoff
        if command == "verify":
            doc.update(verify_against_oracle(K, pairs, args.cutoff))
        elif command == "check":
            cls = classify_input(K)
            simplex = cls.skeleton_of_simplex
            doc["flag"] = cls.flag
            doc["k_skeleton_of_flag"] = cls.k_skeleton_of_flag
            doc["skeleton_of_simplex"] = list(simplex) if simplex else None
            doc["chordal_1_skeleton"] = cls.chordal_1_skeleton
            doc["admissible"] = cls.k_skeleton_of_flag is not None
        else:
            cls = classify_input(K)
            product, trace = decompose_loop(cls, pairs, args.cutoff)
            doc.update(product.to_doc())
            if args.trace:
                doc["trace"] = trace_to_doc(trace, cls.graph)
        _emit(doc, args.output_path)
        # only a verify report has a status
        return EXIT_INTERNAL if doc.get("status") == "FAIL" else EXIT_OK
    except (*_INPUT_ERRORS, ValueError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        if isinstance(exc, _INADMISSIBLE_ERRORS):
            return EXIT_INADMISSIBLE
        if isinstance(exc, _INTERNAL_ERRORS):
            return EXIT_INTERNAL
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
