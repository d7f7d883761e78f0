"""Command-line front end.

Reads poset / complex / subdivision JSON, dispatches the computation, and
prints a byte-stable report (text or JSON).  Exit codes: 0 success, 1 I/O
or parse error, 2 validation failure, 64 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import CdindexError, DomainError

EX_OK = 0
EX_IOERR = 1
EX_INVALID = 2
EX_USAGE = 64

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EX_USAGE)


def _read_input(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        # bad bytes or JSON, an over-long integer, over-deep nesting
        print("input error: %s" % exc, file=sys.stderr)
        raise SystemExit(EX_IOERR)
    if not isinstance(obj, dict):
        raise DomainError("input must be a JSON object")
    return obj


def _as_complex(obj):
    if "facets" not in obj:
        raise DomainError("this operation needs a complex input")
    from . import complexes
    return complexes.SimplicialComplex.from_json_obj(obj)


def _as_subdivision(obj):
    if "carrier" not in obj:
        raise DomainError("this operation needs a subdivision input")
    from . import subdivision
    return subdivision.SubdivisionMap.from_json_obj(obj)


def _emit(args, text_lines, json_obj):
    if args.format == "json":
        json_obj = dict(json_obj)
        json_obj["schema"] = SCHEMA
        print(json.dumps(json_obj, sort_keys=True, separators=(",", ": ")))
    else:
        for line in text_lines:
            print(line)


# -- subcommands -----------------------------------------------------------
# Each subcommand imports the modules its path calls, so that a request
# compiles no module it does not run.


def _cmd_compute(args):
    from . import flagcd, poset
    p = poset._poset_from_obj(_read_input(args.input))
    what = args.what
    if what in ("flagf", "flagh"):
        fv = (flagcd.flag_f if what == "flagf" else flagcd.flag_h)(p)
        lines = ["{%s}: %d" % (",".join(map(str, r)), v)
                 for r, v in fv.items_by_ranks()]
        key = "flag_" + what[-1]
        return _emit(args, lines, {"what": what, key: fv.to_json_obj()})
    if what != "local":
        poly = {"ab": flagcd.ab_index, "upsilon": flagcd.flag_polynomial,
                "cd": flagcd.cd_index}[what](p)
        return _emit(args, [str(poly)], {"what": what,
                                         what: poly.to_json_obj()})
    li = flagcd.local_index(p)  # ab and flag are computed on each read
    images = {"ab": li.ab, "cd": li.cd, "flag": li.flag}
    obj = {k: poly.to_json_obj() for k, poly in images.items()}
    return _emit(args, ["%s: %s" % kv for kv in images.items()],
                 dict(obj, what=what))


def _cmd_verify(args):
    obj = _read_input(args.input)
    prop = args.property
    verdict, reason, extra = _verify(prop, obj, args)
    lines = ["%s: %s" % (prop, "ok" if verdict else "FAIL")]
    if reason:
        lines.append(reason)
    payload = {"property": prop, "ok": verdict, "reason": reason}
    payload.update(extra)
    _emit(args, lines, payload)
    if not verdict:
        raise SystemExit(EX_INVALID)


def _verify(prop, obj, args):
    if prop in ("graded", "eulerian", "lower-eulerian"):
        from . import poset
        p = poset._poset_from_obj(obj)
        if prop == "graded":
            return (p.is_graded,
                    "" if p.is_graded else "rank function inconsistent", {})
        ok = p.is_eulerian() if prop == "eulerian" else p.is_lower_eulerian()
        return ok, "" if ok else "some interval has unbalanced rank parity", {}
    if prop == "gorenstein":
        from . import complexes, poset
        if "facets" in obj:
            k = _as_complex(obj)
        else:
            k = complexes.order_complex(poset._poset_from_obj(obj))
        ok = complexes.is_gorenstein(k)
        extra = {"betti": complexes.reduced_betti(k)}
        return (ok, "" if ok else "some link is not a rational homology "
                                  "sphere", extra)
    if prop == "shelling":
        from . import complexes
        k = _as_complex(obj)
        if args.order is not None:
            parts = args.order.split(";") if args.order else []
            order = [part.split(",") for part in parts]
            ok = complexes.verify_shelling(k, order)
            return ok, "" if ok else "a facet meets the prior complex badly", {}
        found = complexes.find_shelling(k)
        if found is None:
            return False, "no shelling exists", {}
        text = ";".join(",".join(sorted(f)) for f in found)
        return True, "shelling: " + text, {"shelling": text}
    from . import subdivision
    if prop == "strong-eulerian":
        report = subdivision.validate_strong_eulerian(_as_subdivision(obj))
        return report.ok, _report_text(report), {}
    # the last choice
    report = subdivision.validate_strong_formal(_as_subdivision(obj))
    return report.ok, _report_text(report), {}


def _report_text(report):
    if report.ok:
        return ""
    return "; ".join("%s: %s" % (sigma, why)
                     for sigma, why in report.failures[:5])


def _cmd_decompose(args):
    from . import subdivision
    m = _as_subdivision(_read_input(args.input))
    dec = subdivision.decompose_cd(m)
    lines = ["sigma  local_cd  upper_cd"]
    for row in dec.nonzero_rows():
        lines.append("%s  %s  %s" % (row.sigma, row.local_cd, row.upper_cd))
    lines.append("total: %s" % dec.total)
    rows_json = [{"sigma": r.sigma,
                  "local_cd": r.local_cd.to_json_obj(),
                  "upper_cd": r.upper_cd.to_json_obj()}
                 for r in dec.nonzero_rows()]
    _emit(args, lines, {"rows": rows_json,
                        "total": dec.total.to_json_obj(),
                        "validated": "strong-eulerian"})


def _cmd_toric(args):
    from . import poset, toric
    p = poset._poset_from_obj(_read_input(args.input))
    if args.what == "g":
        poly = toric.g_poly(p)
        return _emit(args, [str(poly)], {"g": poly.to_json_obj()})
    poly = toric.toric_h(p)
    return _emit(args, [str(poly)], {"h": poly.to_json_obj()})


def _cmd_localh(args):
    from . import toric
    m = _as_subdivision(_read_input(args.input))
    table = toric.local_h(m)
    lines = ["sigma  local_h"]
    for sigma, poly in table.rows:
        lines.append("%s  %s" % (sigma, poly))
    lines.append("total: %s" % table.total)
    _emit(args, lines, {"rows": [{"sigma": s, "local_h": h.to_json_obj()}
                                 for s, h in table.rows],
                        "total": table.total.to_json_obj(),
                        "validated": "strong-formal"})


def _cmd_morphism(args):
    from . import toric
    if args.poly is not None:
        from . import ncpoly
        poly = ncpoly.parse_word_poly(args.poly, ncpoly.AbPolynomial)
    else:
        from . import flagcd, poset
        p = poset._poset_from_obj(_read_input(args.input))
        poly = flagcd.ab_index(p)
    fn = toric.morphism_f if args.what == "f" else toric.morphism_g
    out = fn(poly)
    _emit(args, [str(out)], {"what": args.what, "result": out.to_json_obj()})


def _cmd_generate(args):
    if args.shape == "boolean":
        from . import poset
        out = poset.boolean_poset(args.n).to_json_obj()
    else:
        out = _generate_complex(args)
    print(json.dumps(out, sort_keys=True, separators=(",", ": ")))


def _generate_complex(args):
    from . import complexes
    shape = args.shape
    if shape == "simplex":
        return complexes.make_simplex(args.dim).to_json_obj()
    if shape == "boundary":
        return complexes.make_boundary_simplex(args.dim).to_json_obj()
    if shape == "polygon":
        return complexes.make_polygon(args.n).to_json_obj()
    if shape == "cube":
        return complexes.make_cube3().to_json_obj()
    if shape == "stacked":
        return complexes.make_stacked(args.dim, args.k, seed=args.seed) \
            .boundary.to_json_obj()
    # "barycentric", the last choice
    if args.input:
        base = _as_complex(_read_input(args.input))
    else:
        base = complexes.make_simplex(args.dim)
    _, m = complexes.barycentric_subdivision(base)
    return m.to_json_obj()


def _build_parser():
    parser = _Parser(prog="cdindex",
                     description="flag enumeration invariants of graded "
                                 "posets and simplicial complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", default="-",
                       help="input file (default: stdin)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("compute", help="flag vectors and indexes")
    p.add_argument("--what", required=True,
                   choices=("flagf", "flagh", "ab", "upsilon", "cd", "local"))
    common(p)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("verify", help="structural predicates")
    p.add_argument("--property", required=True,
                   choices=("graded", "eulerian", "lower-eulerian",
                            "gorenstein", "shelling", "strong-eulerian",
                            "strong-formal"))
    p.add_argument("--order", default=None,
                   help="shelling order: facets ; separated, vertices , "
                        "separated")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("decompose", help="cd-index decomposition table")
    common(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("toric", help="toric g/h polynomials")
    p.add_argument("--what", required=True, choices=("g", "h"))
    common(p)
    p.set_defaults(fn=_cmd_toric)

    p = sub.add_parser("localh", help="local h decomposition table")
    common(p)
    p.set_defaults(fn=_cmd_localh)

    p = sub.add_parser("morphism", help="ab-polynomial to Z[x] morphisms")
    p.add_argument("--what", required=True, choices=("f", "g"))
    p.add_argument("--poly", default=None,
                   help="ab-polynomial text; otherwise --input poset is used")
    common(p)
    p.set_defaults(fn=_cmd_morphism)

    p = sub.add_parser("generate", help="standard shapes as JSON")
    p.add_argument("--shape", required=True,
                   choices=("simplex", "boundary", "polygon", "cube",
                            "boolean", "stacked", "barycentric"))
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", default=None,
                   help="base complex for barycentric subdivision")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(fn=_cmd_generate)
    return parser


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EX_USAGE
    try:
        args.fn(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EX_OK
    except CdindexError as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return EX_INVALID
    except OSError as exc:  # _read_input reports its own, so a write failed
        print("output error: %s" % exc, file=sys.stderr)
        return EX_IOERR
    return EX_OK


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
