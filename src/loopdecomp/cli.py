"""Command-line surface: classify, decompose, verify.

All input and output documents are single JSON files.  Input complexes are
{"m": int, "facets": [[int, ...], ...]}; custom pair data is
{"suspensions": [[dims...] per vertex]}.  Exit codes: 0 success, 1 input
error (a malformed command line too), 2 inadmissible complex, 3
internal-check failure; each error is one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .complexes import (
    BadDocument,
    BadIndex,
    DominatingVertex,
    GhostVertex,
    SimplicialComplex,
    classify_input,
    validate_complex,
)
from .engine import NotFlagSkeleton, PairSpec, decompose_loop, trace_to_doc
from .homotopy import NoSolution, NotADivisor, NotCanonicalP
from .intlinalg import (
    NotIdempotent,
    idempotent_split,
    primitive_bezout,
    random_idempotent,
)
from .oracle import NotApplicable, TooLarge, verify_against_oracle
from .series import DEFAULT_DEGREE

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INADMISSIBLE = 2
EXIT_INTERNAL = 3

_INPUT_ERRORS = (BadDocument, BadIndex, GhostVertex, json.JSONDecodeError, OSError, KeyError)
_INADMISSIBLE_ERRORS = (NotFlagSkeleton, NotApplicable, DominatingVertex, TooLarge)
_INTERNAL_ERRORS = (NotCanonicalP, NotADivisor, NoSolution)


def load_complex(path: str) -> SimplicialComplex:
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise BadDocument("a complex is a JSON object {\"m\": ..., \"facets\": ...}")
    facets = doc["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise BadDocument("facets must be a list of vertex lists")
    return validate_complex(facets, doc["m"])


def resolve_pairs(spec: str, m: int) -> PairSpec:
    if spec == "moment-angle":
        return PairSpec.moment_angle(m)
    if spec.startswith("disks:"):
        dim = int(spec.split(":", 1)[1])
        return PairSpec.disks(dim, m)
    if spec.startswith("custom:"):
        with open(spec.split(":", 1)[1]) as handle:
            doc = json.load(handle)
        dims = doc["suspensions"] if isinstance(doc, dict) else None
        if not isinstance(dims, list) or not all(
            isinstance(ds, list) and all(type(d) is int for d in ds) for ds in dims
        ):
            raise BadDocument("suspensions must be a list of integer lists")
        if len(dims) != m:
            raise ValueError(f"custom pairs cover {len(dims)} vertices, need {m}")
        return PairSpec.from_suspension_dims(dims)
    raise ValueError(f"unknown pair spec {spec!r}")


def _emit(doc: dict, output_path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if output_path:
        with open(output_path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def cmd_check(args: argparse.Namespace) -> int:
    K = load_complex(args.input_path)
    cls = classify_input(K)
    _emit(
        {
            "command": "check",
            "input": K.to_doc(),
            "flag": cls.flag,
            "k_skeleton_of_flag": cls.k_skeleton_of_flag,
            "skeleton_of_simplex": list(cls.skeleton_of_simplex)
            if cls.skeleton_of_simplex
            else None,
            "chordal_1_skeleton": cls.chordal_1_skeleton,
            "admissible": cls.k_skeleton_of_flag is not None,
        },
        args.output_path,
    )
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    K = load_complex(args.input_path)
    pairs = resolve_pairs(args.pairs, K.m)
    product, trace = decompose_loop(K, pairs, args.cutoff)
    doc = {
        "command": "decompose",
        "input": K.to_doc(),
        "pairs": args.pairs,
        "cutoff": args.cutoff,
        **product.to_doc(),
        "expansion": list(product.series.expand(args.cutoff)),
    }
    if args.trace:
        doc["trace"] = trace_to_doc(trace)
    _emit(doc, args.output_path)
    return EXIT_OK


def _split_idempotent_entry(index, matrix) -> dict | None:
    try:
        split = idempotent_split(matrix)
    except NotIdempotent as exc:
        return {"index": index, "status": "FAIL", "detail": str(exc)}
    ok = split.determinant in (1, -1) and len(split.null_basis) + len(
        split.col_basis
    ) == len(matrix)
    return None if ok else {"index": index, "status": "FAIL"}


def _linalg_report(args: argparse.Namespace) -> dict:
    checks = []
    doc = {"command": "verify", "mode": "linalg"}
    if args.input_path:
        with open(args.input_path) as handle:
            matrices = json.load(handle)
        matrices = matrices.get("matrices") if isinstance(matrices, dict) else None
        if not isinstance(matrices, list) or not all(
            isinstance(a, list)
            and all(isinstance(row, list) and all(type(x) is int for x in row) for row in a)
            for a in matrices
        ):
            raise BadDocument("matrices must be a list of integer matrices")
        doc["matrices"] = len(matrices)
        for index, matrix in enumerate(matrices):
            entry = _split_idempotent_entry(index, matrix)
            if entry:
                checks.append(entry)
    else:
        rng = Random(args.seed)
        doc["random"] = args.random_count
        doc["seed"] = args.seed
        for index in range(args.random_count):
            n = rng.randint(1, 6)
            entry = _split_idempotent_entry(index, random_idempotent(n, rng))
            if entry:
                checks.append(entry)
            vector = [rng.randint(-9, 9) for _ in range(n)]
            if any(vector):
                cert = primitive_bezout(vector)
                ok = sum(c * x for c, x in zip(cert.coefficients, vector)) == cert.gcd
                if cert.primitive:
                    ok = ok and cert.odd_component
                if not ok:
                    checks.append({"index": index, "status": "FAIL"})
    doc["failures"] = checks
    doc["status"] = "PASS" if not checks else "FAIL"
    return doc


def cmd_verify(args: argparse.Namespace) -> int:
    if args.linalg:
        doc = _linalg_report(args)
        _emit(doc, args.output_path)
        return EXIT_OK if doc["status"] == "PASS" else EXIT_INTERNAL
    K = load_complex(args.input_path)
    pairs = resolve_pairs(args.pairs, K.m)
    report = verify_against_oracle(K, pairs, args.cutoff)
    doc = {"command": "verify", "input": K.to_doc(), "pairs": args.pairs, "cutoff": args.cutoff}
    doc.update(report.to_doc())
    _emit(doc, args.output_path)
    return EXIT_OK if report.passed else EXIT_INTERNAL


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line through main's one error path."""

    def error(self, message):
        raise ValueError(message)


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
        p.add_argument("--pairs", default="moment-angle")
        p.add_argument("--cutoff", type=int, default=DEFAULT_DEGREE)
        p.add_argument("--output", dest="output_path")
        if name == "decompose":
            p.add_argument("--trace", action="store_true")
        if name == "verify":
            p.add_argument("--linalg", action="store_true")
            p.add_argument("--random", dest="random_count", type=int, default=100)
            p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    handlers = {"check": cmd_check, "decompose": cmd_decompose, "verify": cmd_verify}
    try:
        args = build_parser().parse_args(argv)
        if args.input_path is None and args.command != "verify":
            raise ValueError("--input is required")
        if args.input_path is None and not args.linalg:
            raise ValueError("--input is required without --linalg")
        if args.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if args.command == "verify" and args.random_count < 0:
            raise ValueError("random must be >= 0")
        return handlers[args.command](args)
    except (*_INPUT_ERRORS, ValueError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        if isinstance(exc, _INADMISSIBLE_ERRORS):
            return EXIT_INADMISSIBLE
        if isinstance(exc, _INTERNAL_ERRORS):
            return EXIT_INTERNAL
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
