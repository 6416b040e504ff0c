"""Command-line interface.

Commands: census, tube, check, chi, example.  Reports go to
standard output (deterministic JSON by default, or a plain-text table);
diagnostics and timing go to standard error.  Exit codes: 0 success (for
check: loci coincide), 1 check found a counterexample, 2 input or usage
error, 3 internal assertion failure or any other unexpected error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .builtin import emit_builtin
from .census import census, counting_polynomials, enumerate_subreps
from .documents import document_digest, parse_document, read_document
from .errors import CountNotPolynomialError, InputError, InternalCheckError
from .fields import distinct_primes
from .quiver import euler_form
from .reps import is_rigid, reduce_mod_p
from .tubes import compare_transverse_loci, transverse_combinatorial

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgrass",
        description="Exact census of quiver Grassmannians over finite fields.",
    )
    parser.add_argument("--version", action="version", version=f"qgrass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", help="path to a JSON input document")
        src.add_argument("--builtin", help="name of a built-in module")
        p.add_argument("--q", default="2,3", help="comma-separated primes (default 2,3)")
        p.add_argument("--e", help="comma-separated dimension vector (default: every e <= dims)")
        p.add_argument("--format", choices=("json", "table"), default="json")

    add_common(sub.add_parser("census", help="point-by-point homological census"))
    add_common(sub.add_parser("tube", help="quasi-socle and tube coordinates"))
    add_common(sub.add_parser("check", help="compare combinatorial and homological loci"))
    add_common(sub.add_parser("chi", help="counting polynomial and Euler characteristic"))
    example = sub.add_parser("example", help="emit a built-in input document")
    example.add_argument("--builtin", required=True, help="name of a built-in module")
    example.add_argument("--format", choices=("json", "table"), default="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    start = time.monotonic()
    try:
        if args.command == "example":
            document = emit_builtin(args.builtin)
            _emit(document, args.format)
            return EXIT_OK
        code = _run_command(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as exc:
        print(f"internal check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        import traceback  # here, its only use, so other runs skip the import

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    print(f"{args.command} completed in {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


def entry_point():  # pragma: no cover
    sys.exit(main())


def _run_command(args) -> int:
    document, name = _load_document(args)
    quiver, rep = parse_document(document)
    q_list = _parse_primes(args.q)
    e_sel = _parse_e(args, quiver)

    base = {
        "tool": {"name": "qgrass", "version": __version__},
        "command": args.command,
        "input": {"digest": document_digest(document), "name": name},
        "parameters": {
            "q": q_list,
            "e": "all" if e_sel is None else list(e_sel),
        },
    }

    if args.command == "census":
        base["results"] = [_census_result(reduce_mod_p(rep, q), q, e_sel) for q in q_list]
        _emit(base, args.format)
        return EXIT_OK

    if args.command == "tube":
        results = []
        for q in q_list:
            rep_q = reduce_mod_p(rep, q)
            if is_rigid(rep_q):  # a rigid module is not walked
                results.append({"q": q, "rigid": True})
                continue
            locus = transverse_combinatorial(rep_q, enumerate_subreps(rep_q))
            rays = [
                {"t": t, "dims": list(point.dim_vector), "point": _point_obj(quiver, point)}
                for t, point in enumerate(locus.rays[1:], 1)
            ]
            results.append(
                {
                    "q": q,
                    "rigid": False,
                    "quasi_socle": _point_obj(quiver, locus.rays[1]),
                    "tube": _tube_obj(locus.tube),
                    "ray_submodules": rays,
                }
            )
        base["results"] = results
        _emit(base, args.format)
        return EXIT_OK

    if args.command == "check":
        comparison = compare_transverse_loci(rep, q_list)
        base["results"] = _comparison_obj(quiver, comparison)
        _emit(base, args.format)
        if comparison.internal_errors:
            for line in comparison.internal_errors:
                print(f"internal check failed: {line}", file=sys.stderr)
            return EXIT_INTERNAL
        return EXIT_OK if comparison.verdict else EXIT_COUNTEREXAMPLE

    if args.command == "chi":
        results, failed = [], []
        for e, poly in counting_polynomials(rep, q_list, e_sel).items():
            if isinstance(poly, CountNotPolynomialError):
                failed.append(f"e = {e}: {poly}")
                results.append({"e": list(e), "error": str(poly)})
                continue
            results.append(
                {
                    "e": list(e),
                    "polynomial": str(poly),
                    "coefficients": list(poly.coefficients),
                    "degree": poly.degree,
                    "euler_characteristic": poly.euler_characteristic,
                    "samples": [list(s) for s in poly.samples],
                    "check_sample": list(poly.check_sample),
                }
            )
        base["results"] = results
        _emit(base, args.format)
        for line in failed:
            print(f"internal check failed: {line}", file=sys.stderr)
        return EXIT_INTERNAL if failed else EXIT_OK

    raise InputError(f"unknown command {args.command!r}")


def _load_document(args):
    if args.builtin:
        return emit_builtin(args.builtin), args.builtin
    document = read_document(args.input)
    name = None
    if isinstance(document, dict):
        metadata = document.get("metadata")
        if metadata is not None and not isinstance(metadata, dict):
            raise InputError("'metadata' must be a JSON object")
        name = (metadata or {}).get("name")
    return document, name


def _parse_primes(text: str) -> list[int]:
    try:
        qs = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"bad prime list {text!r}") from None
    return distinct_primes(qs)


def _parse_e(args, quiver):
    if args.e is None:
        return None
    if args.command in ("check", "tube"):
        raise InputError(
            f"--e does not apply to {args.command}, which needs every dimension vector; "
            "it applies to census and chi"
        )
    try:
        e = tuple(int(x) for x in args.e.split(","))
    except ValueError:
        raise InputError(f"bad dimension vector {args.e!r}") from None
    return quiver.check_dim_vector(e)


def _census_result(rep_q, q: int, e_sel) -> dict:
    per_e = [
        {
            "e": list(e),
            "total_points": len(entries),
            "transverse_points": sum(1 for x in entries if x.ext_dim == 0),
            "euler_form": euler_form(rep_q.quiver, e, tuple(d - x for d, x in zip(rep_q.dims, e))),
            "entries": [_entry_obj(rep_q.quiver, x) for x in entries],
        }
        for e, entries in census(rep_q, e_sel).items()
    ]
    return {
        "q": q,
        "dims": list(rep_q.dims),
        "total_points": sum(row["total_points"] for row in per_e),
        "total_transverse": sum(row["transverse_points"] for row in per_e),
        "per_e": per_e,
    }


def _point_obj(quiver, point) -> dict:
    """Each space is written as its rows tuple, so the points that hold one
    space (the walk interns equal spaces) share one tuple."""
    spaces = {v: basis.rows for v, basis in zip(quiver.vertices, point.spaces)}
    return {"dim_vector": list(point.dim_vector), "spaces": spaces}


def _entry_obj(quiver, entry) -> dict:
    return {
        "point": _point_obj(quiver, entry.point),
        "hom_dim": entry.hom_dim,
        "ext_dim": entry.ext_dim,
        "transverse": entry.ext_dim == 0,
    }


def _tube_obj(tube) -> dict:
    return {
        "quasi_socle_dim": list(tube.quasi_socle_dim),
        "tube_rank": tube.tube_rank,
        "quasi_length": tube.quasi_length,
        "l": tube.l,
        "k": tube.k,
        "ray_dims": [list(d) for d in tube.ray_dims],
        "vacuous_window": tube.vacuous_window,
    }


def _comparison_obj(quiver, comparison) -> dict:
    per_field = []
    for fc in comparison.per_field:
        obj = {"q": fc.q, "rigid": fc.rigid, "verdict": fc.verdict}
        if fc.error:
            obj["error"] = fc.error
        if fc.tube:
            obj["tube"] = _tube_obj(fc.tube)
        obj["per_e"] = [
            {
                "e": list(e),
                "combinatorial": comb,
                "homological": hom,
                "equal": equal,
            }
            for e, (comb, hom, equal) in fc.per_e.items()
        ]
        per_field.append(obj)
    return {
        "verdict": comparison.verdict,
        "per_field": per_field,
        "counterexamples": [
            {
                "q": ce.q,
                "e": list(ce.e),
                "point": _point_obj(quiver, ce.point),
                "ext_dim": ce.ext_dim,
                "contains_lower": None if ce.comb_flags is None else ce.comb_flags[0],
                "contained_in_upper": None if ce.comb_flags is None else ce.comb_flags[1],
                "side": ce.side,
            }
            for ce in comparison.counterexamples
        ],
    }


def _emit(payload, fmt: str):
    if fmt == "json":
        print(_dumps(payload))
    else:
        for line in _render_table(payload):
            print(line)


def _dumps(obj) -> str:
    """json's text for sort_keys=True and indent=2 (str keys), but not json's pure-Python path.

    A tuple, which in a report is a space's rows (a tuple of int tuples,
    as in SubspaceBasis.rows), is written once per indent however often
    obj holds it: its text is kept by its identity and indent, which is
    sound because obj keeps every such tuple alive while it is written.  No
    other container's text is kept.
    """
    scalar, key_text = json.JSONEncoder(sort_keys=True).encode, json.encoder.encode_basestring_ascii
    chunks, shared = [], {}
    put = chunks.append

    def write(o, pad):  # pad is "\n" and the indent of o's own line
        if type(o) is int:  # bools are not exact ints
            return put(int.__repr__(o))
        if not (isinstance(o, (dict, list, tuple)) and o):
            return put(scalar(o))  # a scalar, {} or [], by json's C encoder
        inner = pad + "  "
        if isinstance(o, dict):
            put("{" + inner)
            for key in sorted(o):  # key_text raises TypeError on a non-str key
                put(key_text(key) + ": ")
                write(o[key], inner)
                put("," + inner)
            chunks[-1] = pad + "}"  # in place of the last separator
        elif all(type(x) is int for x in o):  # bools are not exact ints
            put("[" + inner + ("," + inner).join(map(int.__repr__, o)) + pad + "]")
        elif (id(o), pad) in shared:
            put(shared[id(o), pad])
        else:
            start = len(chunks)
            put("[" + inner)
            for item in o:
                write(item, inner)
                put("," + inner)
            chunks[-1] = pad + "]"
            if type(o) is tuple:
                shared[id(o), pad] = "".join(chunks[start:])

    write(obj, "\n")
    return "".join(chunks)


def _render_table(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list, tuple)):
                yield f"{pad}{key}:"
                yield from _render_table(value, indent + 1)
            else:
                yield f"{pad}{key}: {value}"
    elif isinstance(payload, (list, tuple)):
        for item in payload:
            if isinstance(item, (dict, list, tuple)):
                yield f"{pad}-"
                yield from _render_table(item, indent + 1)
            else:
                yield f"{pad}- {item}"
    else:
        yield f"{pad}{payload}"
