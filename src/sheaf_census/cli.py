"""Command line front end.

Subcommands: orbits, census, verify, series. Output formats: json (default),
csv, table. Exit codes: 0 success / all checks pass, 1 verification
mismatch, 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from itertools import chain

from . import DEFAULT_SWEEP, SUBSETS, __version__


def _default_order() -> int:
    raw = os.environ.get("SHEAF_CENSUS_ORDER")
    if raw is None:
        from . import qseries
        return qseries.DEFAULT_ORDER
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"bad SHEAF_CENSUS_ORDER {raw!r}") from None


def _resolve_order(args: argparse.Namespace, least: int, refusal: str) -> None:
    """Fill args.order from the environment if unset; refuse it below least,
    naming --order or SHEAF_CENSUS_ORDER, whichever set it."""
    source = "--order"
    if args.order is None:
        args.order, source = _default_order(), "SHEAF_CENSUS_ORDER"
    if args.order < least:
        raise ValueError(f"{refusal}: {source} is {args.order}")


def _envelope(args: argparse.Namespace, payload: dict, warnings: list[str]) -> dict:
    return {
        "tool": "sheaf-census",
        "version": __version__,
        "command": " ".join(args._argv),
        "payload": payload,
        "warnings": warnings,
    }


_encoders: dict = {}  # indent depth -> encode of the C-accelerated encoder
_SCALAR_TYPES = {str, int, float, bool, type(None)}


class _Rendered(str):
    """JSON text that _json_text already wrote at the depth where it sits."""


def _json_text(obj, depth: int = 1) -> str:
    """json.dumps(obj, indent=2), byte for byte, for obj whose items sit at
    the given indent depth (json.dumps with an indent runs the pure-Python
    encoder). Each container of scalars is one encode() call, and so is a
    list of nonempty dicts of scalars: encoded at its items' depth, only its
    "},{" joins need indenting, as every raw newline is a separator (the
    encoder escapes those inside strings). A _Rendered value is emitted as it
    is, so a caller can assemble one large value from pieces of this text."""
    if isinstance(obj, _Rendered):
        return obj
    for d in (depth, depth + 1):
        if d not in _encoders:
            _encoders[d] = json.JSONEncoder(separators=(",\n" + "  " * d, ": ")).encode
    encode, containers = _encoders[depth], (dict, list, tuple, _Rendered)
    if not isinstance(obj, containers) or not obj:
        return encode(obj)
    outer, inner, deeper = "  " * (depth - 1), "  " * depth, "  " * (depth + 1)
    is_dict = isinstance(obj, dict)
    if (not is_dict and set(map(type, obj)) == {dict} and all(obj)
            and set(map(type, chain.from_iterable(map(dict.values, obj)))) <= _SCALAR_TYPES):
        body = _encoders[depth + 1](obj)[2:-2].replace(
            "},\n" + deeper + "{", f"\n{inner}}},\n{inner}{{\n{deeper}")
        return f"[\n{inner}{{\n{deeper}{body}\n{inner}}}\n{outer}]"
    values = obj.values() if is_dict else obj
    if any(isinstance(v, containers) for v in values):
        items = [_json_text(v, depth + 1) for v in values]
        if is_dict:  # a key as json renders it: the object {key: 0} less "{" and ": 0}"
            items = [f"{encode({key: 0})[1:-4]}: {item}" for key, item in zip(obj, items)]
        body = (",\n" + inner).join(items)
    else:
        body = encode(obj)[1:-1]
    brackets = "{}" if is_dict else "[]"
    return f"{brackets[0]}\n{inner}{body}\n{outer}{brackets[1]}"


def _emit(text: str, out: str | None) -> None:
    end = "" if text.endswith("\n") else "\n"  # print adds it: no copy of a long text
    if out is None:
        print(text, end=end, flush=True)  # a closed stdout raises here, inside main
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(out)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sheaf-census-")
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w") as handle:
            print(text, end=end, file=handle)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _render_table(headers: list[str], rows, title: str) -> str:
    cells = [["" if c is None else str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = [title, "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
    return "\n".join(lines)


def _render_csv(headers: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

_SIZE_FLAGS = {"p": "bdi", "q": "bdi", "n": "diii"}  # each size flag -> its family


def _require(args: argparse.Namespace) -> None:
    """Refuse a family's invocation that lacks one of its size flags, or
    that carries another family's."""
    missing = [f"--{flag}" for flag, family in _SIZE_FLAGS.items()
               if family == args.family and getattr(args, flag) is None]
    if missing:
        raise ValueError(f"{args.subcommand} {args.family} needs {' and '.join(missing)}")
    for flag, family in _SIZE_FLAGS.items():
        if family != args.family and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies to the {family} family only")


def _cmd_orbits(args: argparse.Namespace) -> int:
    from . import diagrams, groups

    _require(args)
    listed = []  # (diagram, (its deltas, *its cells past "delta" by header))
    if args.family == "bdi":
        listing = diagrams.sigma_b_listing if args.richardson else diagrams.sigma_listing
        tails: dict = {}  # id of a listed class -> its deltas and cells, built once per class
        for d, cls in zip(*listing(args.p, args.q)):
            if args.orbit_class and cls.index != int(args.orbit_class[-1]):
                continue
            if id(cls) not in tails:
                tails[id(cls)] = ((None,) if args.richardson else cls.deltas, cls.a, cls.b, cls.r,
                                  f"sigma{cls.index}", 2 ** cls.r,
                                  groups._kappa1_data(cls, args.p, args.q).count)
            listed.append((d, tails[id(cls)]))
    else:
        if args.orbit_class:
            raise ValueError("--class applies to the bdi family only")
        members = diagrams.enum_lambda_b(args.n) if args.richardson else diagrams.enum_lambda(args.n)
        listed = [(d, ((None,), None, None, 0, "lambda", 1, groups.kappa1_data_DIII(d).count))
                  for d in members]

    headers = ["diagram", "delta", "a", "b", "r", "class", "k0_irreps", "k1_irreps"]
    # the rows sit at depth 3 of the envelope: envelope, payload, list
    payload = {"orbits": _orbit_rows_json(listed, headers, 3)} if args.format == "json" else {}
    return _finish(args, payload, [], headers, lambda: [
        [diagrams.format_diagram(d), delta, *cells] for d, (deltas, *cells) in listed
        for delta in deltas])


def _orbit_rows_json(listed: list, headers: list[str], depth: int) -> _Rendered:
    """The orbit rows as _json_text writes them at depth. The rows of each
    distinct (deltas, *cells) are written once, with a hole for the diagram
    text, and cut there into pieces; a diagram's rows are its text joined with
    its pieces. Diagram texts (digits, signs, carets, spaces) need no escaping."""
    from . import diagrams

    if not listed:
        return _Rendered("[]")
    head, tail = f"[\n{depth * '  '}", f"\n{(depth - 1) * '  '}]"
    hole = "\\u0000"  # the JSON text of the "\0" that stands for each diagram
    # (deltas, *cells) -> the text of their rows, cut at the holes; keyed by
    # content, as diii builds one key per diagram
    pieces: dict = {}
    texts = []
    for d, key in listed:
        if key not in pieces:
            rows = [dict(zip(headers, ("\0", delta, *key[1:]))) for delta in key[0]]
            pieces[key] = _json_text(rows, depth)[len(head):-len(tail)].split(hole)
        texts.append(diagrams.format_diagram(d).join(pieces[key]))
    return _Rendered(head + ("," + head[1:]).join(texts) + tail)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def _cmd_census(args: argparse.Namespace) -> int:
    from . import census

    _require(args)
    centrals = ("k0", "k1") if args.central == "both" else (args.central,)
    if args.family == "bdi":
        build = {"k0": census.census_bdi_k0, "k1": census.census_bdi_k1}
        built = [build[central](args.p, args.q) for central in centrals]
    else:
        both = dict(zip(("k0", "k1"), census.census_diii(args.n)))
        built = [both[central] for central in centrals]
    reports = [census.subset_report(r, args.subset) for r in built]
    mismatches = []
    if args.check:
        for r in reports:
            expected = census.expected_subset_total(r, args.subset)
            if r.total != expected:
                mismatches.append(f"{r.pair} {r.central} {args.subset}: "
                                  f"census {r.total} != formula {expected}")
    payload = {"reports": [r.to_json_dict() for r in reports]}
    if args.check:
        payload["check"] = {"passed": not mismatches, "mismatches": mismatches}
    warnings = sorted({w for r in reports for w in r.warnings})

    headers = ["central", "support", "delta", "m", "k", "mu", "family", "count"]
    def rows():
        for r in payload["reports"]:
            for stratum in r["strata"]:
                yield [r["central"], *(stratum[h] for h in headers[1:])]
            yield [r["central"], "TOTAL", None, None, None, None, args.subset, r["total"]]
    _finish(args, payload, warnings, headers, rows)
    if mismatches:
        sys.stderr.write("\n".join(mismatches) + "\n")
    return 1 if mismatches else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    ids = [piece for chunk in args.suite for piece in chunk.split(",") if piece]
    if not ids:
        raise ValueError(f"verify needs at least one check id: --suite is {' '.join(args.suite)!r}")
    if "all" in ids and ids != ["all"]:
        raise ValueError(f"verify --suite all must stand alone: --suite is {' '.join(args.suite)!r}")
    if args.sweep < verify.MIN_SWEEP:
        raise ValueError(f"verify needs a sweep of at least {verify.MIN_SWEEP}: "
                         f"--sweep is {args.sweep}")
    selection = "all" if ids == ["all"] else ids
    _resolve_order(args, verify.MIN_ORDER, f"verify needs an order of at least {verify.MIN_ORDER}")
    try:
        results = verify.run_suite(selection, order=args.order, sweep=args.sweep)
    except KeyError as exc:
        sys.stderr.write(f"sheaf-census: {exc.args[0]}\n")
        return 2
    payload = {
        "order": args.order,
        "sweep": args.sweep,
        "checks": [r.to_json_dict() for r in results],
        "all_pass": all(r.passed for r in results),
    }
    _finish(args, payload, [], ["id", "status", "scope", "detail"],
            lambda: [[r.id, r.status, r.scope, json.dumps(r.detail) if r.detail else ""]
                     for r in results])
    return 0 if payload["all_pass"] else 1


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def _cmd_series(args: argparse.Namespace) -> int:
    from . import qseries

    _resolve_order(args, 0, "series needs a nonnegative order")
    try:
        series = qseries.parse_series_expr(args.expr, args.order)
    except qseries.SeriesParseError as exc:
        sys.stderr.write("sheaf-census: series parse error: " + exc.diagnostic() + "\n")
        return 2
    except (MemoryError, OverflowError):  # no list of order + 1 coefficients fits
        raise ValueError(f"series order {args.order} is too large to expand") from None
    if args.coeff is not None:
        if args.coeff < 0:
            raise ValueError(f"series needs a nonnegative coefficient: --coeff is {args.coeff}")
        if args.coeff > series.order:
            raise ValueError(f"coefficient {args.coeff} beyond order {series.order}")
    exponents = range(series.order + 1) if args.coeff is None else [args.coeff]
    values = [series.coeffs[e] for e in exponents]
    payload = {"expr": args.expr, "order": args.order,
               "coefficients": {str(e): str(v) for e, v in zip(exponents, values)}}
    _emit(_json_text(_envelope(args, payload, [])) if args.format == "json"
          else ", ".join(map(str, values)), args.out)
    return 0


def _finish(args: argparse.Namespace, payload: dict, warnings: list[str],
            headers: list[str], rows) -> int:
    """Emit the payload as json, or as the csv or table rows that rows() builds."""
    if args.format == "json":
        _emit(_json_text(_envelope(args, payload, warnings)), args.out)
    elif args.format == "csv":
        _emit(_render_csv(headers, rows()), args.out)
    else:
        body = _render_table(headers, rows(), " ".join(args._argv))
        if warnings:
            body += "\n" + "\n".join(f"warning: {w}" for w in warnings)
        _emit(body, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheaf-census",
        description="Exact censuses of character sheaves for the orthogonal "
                    "and equal-signature pairs of the double covers, plus a "
                    "generating-function identity verifier.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "table"], default="json")
    common.add_argument("--out", metavar="FILE", default=None,
                        help="write output to FILE (atomically) instead of stdout")

    sized = argparse.ArgumentParser(add_help=False, parents=[common])
    sized.add_argument("family", choices=list(dict.fromkeys(_SIZE_FLAGS.values())))
    for flag in _SIZE_FLAGS:
        sized.add_argument(f"--{flag}", type=int)

    orbits = sub.add_parser("orbits", parents=[sized],
                            help="list nilpotent orbits and their local-system counts")
    orbits.add_argument("--class", dest="orbit_class",
                        choices=["sigma1", "sigma2", "sigma3"], default=None)
    orbits.add_argument("--richardson", action="store_true",
                        help="restrict to the Richardson subsets")
    orbits.set_defaults(func=_cmd_orbits)

    cen = sub.add_parser("census", parents=[sized],
                         help="count character sheaves by support stratum")
    cen.add_argument("--central", choices=["k0", "k1", "both"], default="both")
    cen.add_argument("--subset", choices=list(SUBSETS), default="all")
    cen.add_argument("--check", action="store_true",
                     help="cross-check totals against the closed formulas "
                          "(exit 1 on mismatch)")
    cen.set_defaults(func=_cmd_census)

    ver = sub.add_parser("verify", parents=[common],
                         help="run the generating-function identity suite")
    ver.add_argument("--suite", nargs="+", default=["all"],
                     help="check ids, or 'all'")
    ver.add_argument("--order", type=int, default=None)
    ver.add_argument("--sweep", type=int, default=DEFAULT_SWEEP)
    ver.set_defaults(func=_cmd_verify)

    ser = sub.add_parser("series", parents=[common],
                         help="expand a product expression to exact coefficients")
    ser.add_argument("--expr", required=True)
    ser.add_argument("--order", type=int, default=None)
    ser.add_argument("--coeff", type=int, default=None)
    ser.set_defaults(func=_cmd_series)
    return parser


_parsers: dict = {}  # "main" -> the argparse tree, built once per process


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "main" not in _parsers:
        _parsers["main"] = _build_parser()
    parser = _parsers["main"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args._argv = ["sheaf-census"] + argv
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader closed stdout: stop quietly, as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # what stays buffered is flushed there at exit
        os.close(devnull)
        return 141
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        sys.stderr.write(f"sheaf-census: {exc}\n")
        # a tripped internal guard (integrality, halving, character-count
        # exponent) is a failed check; anything else is a usage or input error
        return 1 if isinstance(exc, ArithmeticError) else 2


if __name__ == "__main__":
    sys.exit(main())
