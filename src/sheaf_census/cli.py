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
from functools import partial
from itertools import chain, compress, islice
from math import gcd

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


_CHUNK = 128  # the items (orbit diagrams, census rows) rendered per written piece


def _json_pieces(obj):
    """json.dumps(obj, indent=2), byte for byte, in pieces. A callable value is a
    list: json.dumps writes a "\\0" hole for it, and called with its items' indent
    depth, read off the hole's line, it yields their text run by run."""
    streams = []
    def hole(value):
        if not callable(value):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        streams.append(value)
        return "\0"
    text = json.dumps(obj, indent=2, default=hole)
    parts = text.split('"\\u0000"') if streams else [text]
    if len(parts) != len(streams) + 1:  # a "\\0" string renders as a hole does
        raise ValueError(f"{len(parts) - 1} holes for {len(streams)} streamed lists")
    yield parts[0]
    for head, stream, tail in zip(parts, streams, parts[1:]):
        line = head[head.rfind("\n") + 1:]
        inner = "  " + line[:len(line) - len(line.lstrip())]
        sep = "[\n" + inner
        for run in stream(len(inner) // 2):
            yield from (sep, run)
            sep = ",\n" + inner
        yield f"\n{inner[2:]}]" if sep[0] == "," else "[]"  # [] if nothing ran
        yield tail


def _emit(pieces, out: str | None) -> None:
    """Write the text pieces, ending in a newline, to stdout or atomically to out."""
    if out is None:
        sys.stdout.writelines(pieces)  # a closed stdout raises here, inside main
        sys.stdout.flush()
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(out)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sheaf-census-")
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(pieces)
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
    if args.family == "bdi":
        listing = diagrams.sigma_b_listing if args.richardson else diagrams.sigma_listing
        _, classes, texts = listing(args.p, args.q)[:3]
        keys = list(map(id, classes))  # one instance serves each class; its hash is Python's
        cells = {}  # key of a listed class -> its deltas and its cells past "delta"
        for key, cls in dict(zip(keys, classes)).items():
            if not args.orbit_class or cls.index == int(args.orbit_class[-1]):
                cells[key] = ((None,) if args.richardson else cls.deltas, cls.a, cls.b, cls.r,
                              f"sigma{cls.index}", 2 ** cls.r,
                              groups._kappa1_data(cls, args.p, args.q).count)
        if args.orbit_class:
            kept = list(map(cells.__contains__, keys))
            texts, keys = list(compress(texts, kept)), list(compress(keys, kept))
    else:
        if args.orbit_class:
            raise ValueError("--class applies to the bdi family only")
        listing = diagrams.lambda_b_listing if args.richardson else diagrams.lambda_listing
        _, classes, texts = listing(args.n)
        keys = [int(cls.index == 3) for cls in classes]  # the one cell that varies: kappa1
        cells = {count: ((None,), None, None, 0, "lambda", 1, count) for count in set(keys)}

    headers = ["diagram", "delta", "a", "b", "r", "class", "k0_irreps", "k1_irreps"]
    payload = {"orbits": partial(_orbit_chunks, texts, keys, cells, headers)}
    return _finish(args, payload, [], headers, lambda: [
        [text, delta, *cells[key][1:]] for text, key in zip(texts, keys)
        for delta in cells[key][0]])


def _row_template(row: dict, depth: int) -> list[str]:
    """json.dumps(indent=2)'s text of row, a nonempty dict of scalars, as an item
    at depth, cut at each "\\0" value: the JSON text of each value that varies
    goes between the pieces. One C encode(): its raw newlines are all separators
    (strings escape theirs), so only the braces need lines of their own."""
    deeper = "  " * (depth + 1)
    body = json.JSONEncoder(separators=(",\n" + deeper, ": ")).encode(row)[1:-1]
    pieces = f"{{\n{deeper}{body}\n{'  ' * depth}}}".split('"\\u0000"')
    if len(pieces) != list(row.values()).count("\0") + 1:
        raise ValueError("a \"\\0\" key renders as a hole does")
    return pieces


def _json_name(name: str | None) -> str:
    """The JSON text of a name that needs no escaping (a delta), or null."""
    return "null" if name is None else f'"{name}"'


def _orbit_chunks(texts, keys, cells: dict, headers: list[str], depth: int):
    """The JSON text of the orbit rows at depth, _CHUNK diagrams at a time: a
    diagram's rows are its text joined with its key's pieces, the key's rows (one
    per delta, filled into its template) cut where the text goes. Diagram texts
    (digits, signs, carets, spaces) need no escaping."""
    sep = ",\n" + depth * "  "
    pieces = {}
    for key, (deltas, *rest) in cells.items():
        head, middle, tail = _row_template(dict(zip(headers, ("\0", "\0", *rest))), depth)
        pieces[key] = sep.join(f'{head}"\0"{middle}{_json_name(delta)}{tail}'
                               for delta in deltas).split("\0")
    for start in range(0, len(texts), _CHUNK):
        yield sep.join(map(str.join, texts[start:start + _CHUNK],
                           map(pieces.__getitem__, keys[start:start + _CHUNK])))


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
    headers = ["central", *census.ROW_KEYS]
    payload = {"reports": [r.to_json_dict(partial(_strata_chunks, r)) for r in reports]}
    if args.check:
        payload["check"] = {"passed": not mismatches, "mismatches": mismatches}
    warnings = sorted({w for r in reports for w in r.warnings})

    def rows():
        for r in reports:
            yield from ([r.central, *row] for row in r.rows())
            yield [r.central, "TOTAL", None, None, None, None, args.subset, r.total]
    _finish(args, payload, warnings, headers, rows)
    if mismatches:
        sys.stderr.write("\n".join(mismatches) + "\n")
    return 1 if mismatches else 0


def _strata_chunks(report, depth: int):
    """The JSON text of report.to_json_dict()'s strata rows at depth, _CHUNK rows
    at a time: each of report.rows() fills one template of the census.ROW_KEYS.
    Diagram texts and family and delta names need no escaping."""
    from .census import ROW_KEYS

    t0, t1, t2, t3, t4, t5, t6, t7 = _row_template(dict.fromkeys(ROW_KEYS, "\0"), depth)
    rows = (f'{t0}"{support}"{t1}{_json_name(delta)}{t2}{m}{t3}{k}{t4}"{mu}"{t5}"{family}"{t6}'
            f'{count}{t7}' for support, delta, m, k, mu, family, count in report.rows())
    sep = ",\n" + depth * "  "
    while chunk := list(islice(rows, _CHUNK)):
        yield sep.join(chunk)


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
    texts = [_fraction_text(series.nums[e], series.den) for e in exponents]
    payload = {"expr": args.expr, "order": args.order,
               "coefficients": dict(zip(map(str, exponents), texts))}
    _emit(chain(_json_pieces(_envelope(args, payload, [])), ["\n"]) if args.format == "json"
          else [", ".join(texts), "\n"], args.out)
    return 0


def _fraction_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den >= 1, read off one gcd."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _finish(args: argparse.Namespace, payload: dict, warnings: list[str],
            headers: list[str], rows) -> int:
    """Emit the payload as json, or as the csv or table rows that rows() builds."""
    if args.format == "json":
        _emit(chain(_json_pieces(_envelope(args, payload, warnings)), ["\n"]), args.out)
    elif args.format == "csv":
        _emit([_render_csv(headers, rows())], args.out)  # its rows end in \r\n
    else:
        _emit([_render_table(headers, rows(), " ".join(args._argv)),
               *(f"\nwarning: {w}" for w in warnings), "\n"], args.out)
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
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help, --version or a usage error
            sys.stdout.flush()  # what argparse left buffered: a closed stdout raises here
            return exc.code if isinstance(exc.code, int) else 2
        args._argv = ["sheaf-census"] + argv
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
