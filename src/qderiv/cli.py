"""Command-line front end.

Subcommands: ``table`` (compute and render a family), ``oracle`` (the
same schema computed by brute force only), ``verify`` (run identity
checks), ``series`` (render series coefficients) and ``export`` (write a
rendered family to a file).  Data goes to stdout, logs to stderr; exit
codes: 0 success/all-pass, 1 verification failure, 2 usage error, 141
when the reader of stdout closes it early (as a shell reports a writer
killed by SIGPIPE).

Rendered tables may be cached on disk, one file per (family, n, format),
named ``<family>_n<n>.<format>``: a stamp line, then the exact output of
that command (about 2.8 MB for A at n = 14 in json).  The stamp is a
sha256 over a fingerprint of the package's source, the entry's file name
and those bytes, so an entry that is corrupt, in an older format, written
by other code or copied under another entry's name is recomputed.  The
output is encoded once, on a miss; stdout, the entry and the ``export``
file get those bytes, and a hit writes the entry's body undecoded.

The math modules are imported inside the commands that run them, so a
cache hit imports none of them, and ``series`` imports no table code.
``hashlib`` is imported only when the cache is used.  Every record of the
package is a named tuple, declared with ``typing`` or ``collections`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from qderiv.render import FORMATS, Table, render

if TYPE_CHECKING:
    from qderiv.tables import PolyTable

CACHE_ENV = "QDERIV_CACHE_DIR"

TABLE_FAMILIES = (
    "a_small",
    "b_small",
    "A",
    "B",
    "Ac",
    "carlitz",
    "fib",
    "springer",
    "tq",
)
ORACLE_FAMILIES = ("A", "B", "Ac")

# the ``qderiv.series`` functions that ``series`` may print
SERIES_NAMES = (
    "e_q",
    "E_q",
    "sin_q",
    "cos_q",
    "Sin_q",
    "Cos_q",
    "tan_q",
    "sec_q",
    "Sec_q",
    "classical_tan",
    "classical_sec",
)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# -- family builders -----------------------------------------------------


_TRIPLE_COLUMNS = (("n", "int"), ("k", "int"), ("a", "int"), ("b", "int"), ("poly", "qpoly"))
_COMP_COLUMNS = (("n", "int"), ("c", "parts"), ("poly", "qpoly"))


def _poly_family(table: PolyTable) -> Table:
    """Render rows (n, k, a, b, poly) or (n, c, poly) of any route's table."""
    from qderiv.tables import KIND_AC

    columns = _COMP_COLUMNS if table.kind == KIND_AC else _TRIPLE_COLUMNS
    rows = tuple(key + (poly,) for key, poly in table.sorted_items())
    return Table(table.kind, table.n_max, columns, rows)


def _row_family(family: str, n_max: int, rows, columns) -> Table:
    """Render rows[n][key] -> value as (n, key, value), key by key."""
    flat = tuple((n, key, value) for n, row in enumerate(rows) for key, value in sorted(row.items()))
    return Table(family, n_max, columns, flat)


def build_family(family: str, n_max: int) -> Table:
    from qderiv.tables import a_table, ac_table, b_table

    recurrence = {"A": a_table, "B": b_table, "Ac": ac_table}.get(family)
    if recurrence is not None:
        return _poly_family(recurrence(n_max))
    from qderiv import special
    from qderiv.tcomb import alpha, beta

    if family == "a_small" or family == "b_small":
        tri = special.small_triangles(n_max)[0 if family == "a_small" else 1]
        return _row_family(family, n_max, tri, (("n", "int"), ("m", "int"), ("value", "int")))
    if family == "carlitz":
        table = special.carlitz_table(n_max)
        return _row_family(family, n_max, table, (("n", "int"), ("j", "int"), ("poly", "qpoly")))
    if family == "fib":
        rows = []
        for n in range(n_max + 1):
            for m in range(n + 3):
                av, bv = alpha(n, m), beta(n, m)
                if av or bv:
                    rows.append((n, m, av, bv))
            rows.append((n, n + 3, sum(alpha(n, m) for m in range(n + 2)),
                         sum(beta(n, m) for m in range(n + 2))))
        # the final entry of each row (m = n+3, outside the triangle)
        # carries the Fibonacci row sums
        return Table(
            family,
            n_max,
            (("n", "int"), ("m", "int"), ("alpha", "int"), ("beta", "int")),
            tuple(rows),
            outer_var="x",
        )
    if family == "springer":
        rows = []
        for n in range(n_max + 1):
            poly = special.springer_poly_from_tables(n)
            rows.append((n, poly, poly.eval_at_one()))
        return Table(
            family,
            n_max,
            (("n", "int"), ("poly", "qpoly"), ("at_one", "int")),
            tuple(rows),
        )
    if family == "tq":
        rows = []
        for n in range(n_max + 1):
            poly = special.tq_tangent(n) if n % 2 else special.tq_secant(n)
            rows.append((n, "tangent" if n % 2 else "secant", poly))
        return Table(
            family,
            n_max,
            (("n", "int"), ("kind", "str"), ("poly", "xqpoly")),
            tuple(rows),
            outer_var="t",
        )
    raise ValueError("unknown family %r" % (family,))


def build_oracle(family: str, n_max: int, brute_bound: Optional[int]) -> Table:
    from qderiv import tcomb
    from qderiv.tables import PolyTable, oracle_all

    bound = tcomb.BRUTE_FORCE_BOUND if brute_bound is None else brute_bound
    if n_max > bound:
        raise tcomb.BruteForceBoundError("order %d exceeds the brute-force bound %d" % (n_max, bound))
    if n_max > tcomb.BRUTE_FORCE_LIMIT:
        raise tcomb.BruteForceBoundError(
            "order %d exceeds the brute-force limit %d (the largest n whose oracle tallies stay under 48 MB)"
            % (n_max, tcomb.BRUTE_FORCE_LIMIT)
        )
    index = ORACLE_FAMILIES.index(family)
    rows = tuple(oracle_all(n)[index] for n in range(n_max + 1))
    return _poly_family(PolyTable(family, rows))


# -- cache ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _source_fingerprint() -> bytes:
    """sha256 of the package's own modules, computed on first cache use."""
    import hashlib

    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source = handle.read()
            digest.update(b"%s %d\n" % (name.encode("utf-8"), len(source)))
            digest.update(source)
    return digest.hexdigest().encode("ascii")


def _stamp(path: str, body: bytes) -> bytes:
    """sha256 over the source fingerprint, the entry's file name and its
    body, so an entry is valid under its own name only; the body is hashed
    where it lies, not copied into one buffer with the fingerprint."""
    import hashlib

    digest = hashlib.sha256(_source_fingerprint())
    digest.update(b" %s\n" % os.path.basename(path).encode("utf-8"))
    digest.update(body)
    return digest.hexdigest().encode("ascii")


def _cache_path(cache_dir: str, family: str, n_max: int, fmt: str) -> str:
    return os.path.join(cache_dir, "%s_n%d.%s" % (family, n_max, fmt))


def cache_load(cache_dir: str, family: str, n_max: int, fmt: str) -> Optional[bytes]:
    """The bytes of the cached ``fmt`` rendering of (family, n_max), or None."""
    path = _cache_path(cache_dir, family, n_max, fmt)
    try:
        with open(path, "rb") as handle:
            stamp = handle.readline().rstrip(b"\n")
            body = handle.read()
    except OSError:
        return None
    if stamp != _stamp(path, body):
        _log("cache entry %s failed validation; recomputing" % path)
        return None
    return body


def cache_store(cache_dir: str, family: str, n_max: int, fmt: str, body: bytes) -> None:
    """Store ``body``, the bytes of the ``fmt`` rendering of (family, n_max)."""
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, family, n_max, fmt)
    import tempfile

    # write a temp file beside the entry and rename it into place, so an
    # interrupted or concurrent run never leaves a half-written entry
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with open(fd, "wb") as handle:
            handle.write(_stamp(path, body) + b"\n")
            handle.write(body)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _render_family(family: str, n_max: int, fmt: str, cache_dir: Optional[str]) -> bytes:
    """The bytes of the family rendered in ``fmt``: the body of its cache
    entry when there is one, else rendered and encoded once (and stored)."""
    body = cache_load(cache_dir, family, n_max, fmt) if cache_dir else None
    if body is not None:
        return body
    body = render(build_family(family, n_max), fmt).encode("utf-8")
    if cache_dir:
        # the table is already rendered: a cache that cannot take it costs
        # the next run, not this one
        try:
            cache_store(cache_dir, family, n_max, fmt, body)
        except OSError as exc:
            _log("warning: cache entry %s not written: %s"
                 % (_cache_path(cache_dir, family, n_max, fmt), exc.strerror or exc))
    return body


# -- argument parsing -------------------------------------------------------


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qderiv",
        description="Exact q-tangent/secant derivative polynomial tables and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="compute and print a polynomial family")
    p_table.add_argument("family", choices=TABLE_FAMILIES)
    p_table.add_argument("--n", type=_nonnegative, required=True, dest="n_max")
    p_table.add_argument("--format", choices=FORMATS, default="text")
    p_table.add_argument("--cache-dir", default=None)

    p_oracle = sub.add_parser("oracle", help="brute-force recomputation of a family")
    p_oracle.add_argument("family", choices=ORACLE_FAMILIES)
    p_oracle.add_argument("--n", type=_nonnegative, required=True, dest="n_max")
    p_oracle.add_argument("--format", choices=FORMATS, default="text")
    p_oracle.add_argument("--bound-bruteforce", type=_nonnegative, default=None)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("ids", nargs="*", default=["all"])
    p_verify.add_argument("--n", type=_nonnegative, default=None)
    p_verify.add_argument("--order", type=_nonnegative, default=None)
    p_verify.add_argument("--bound-bruteforce", type=_nonnegative, default=None)
    p_verify.add_argument("--format", choices=("json", "text"), default="json")

    p_series = sub.add_parser("series", help="print series coefficients")
    p_series.add_argument("name", choices=sorted(SERIES_NAMES))
    p_series.add_argument("--order", type=_nonnegative, default=10)
    p_series.add_argument("--format", choices=("json", "text"), default="text")

    p_export = sub.add_parser("export", help="write a rendered family to a file")
    p_export.add_argument("family", choices=TABLE_FAMILIES)
    p_export.add_argument("--n", type=_nonnegative, required=True, dest="n_max")
    p_export.add_argument("--format", choices=FORMATS, default="json")
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--cache-dir", default=None)

    return parser


def _resolve_cache_dir(flag_value: Optional[str]) -> Optional[str]:
    """``--cache-dir``, else the environment variable; the directory is made
    here, so a path that cannot be one raises ``OSError`` before any work."""
    cache_dir = flag_value or os.environ.get(CACHE_ENV) or None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
    return cache_dir


def _cmd_table(args) -> int:
    sys.stdout.buffer.write(_render_family(args.family, args.n_max, args.format, args.cache_dir))
    return 0


def _cmd_oracle(args) -> int:
    from qderiv.tcomb import BruteForceBoundError

    try:
        table = build_oracle(args.family, args.n_max, args.bound_bruteforce)
    except BruteForceBoundError as exc:
        _log("error: %s" % exc)
        return 2
    sys.stdout.write(render(table, args.format))
    return 0


def _cmd_verify(args) -> int:
    from qderiv import verify

    try:
        specs = verify.specs_for(args.ids)
    except KeyError as exc:
        _log("error: unknown check id %s" % exc)
        return 2
    except ValueError as exc:
        _log("error: %s" % exc)
        return 2
    bounds = verify.Bounds()
    if args.bound_bruteforce is not None:
        bounds = bounds._replace(brute_n=args.bound_bruteforce)
    try:
        reports = verify.run_checks(specs, bounds, n=args.n, order=args.order)
    except verify.InvalidBoundsError as exc:
        _log("error: %s" % exc)
        return 2
    failed = 0
    for report in reports:
        if args.format == "json":
            sys.stdout.write(report.to_json_line() + "\n")
        else:
            line = "%s %s %s" % (
                "PASS" if report.passed else "FAIL",
                report.id,
                json.dumps(report.params, sort_keys=True),
            )
            if report.first_discrepancy is not None:
                line += "  first_discrepancy=%s" % json.dumps(
                    report.first_discrepancy.to_json(), sort_keys=True
                )
            sys.stdout.write(line + "\n")
        if not report.passed:
            failed += 1
    return 1 if failed else 0


def _cmd_series(args) -> int:
    from qderiv import series

    built = getattr(series, args.name)(args.order)
    if args.format == "json":
        sys.stdout.write(json.dumps(built.to_json(), sort_keys=True) + "\n")
        return 0
    for n, coeff in enumerate(built.coeffs):
        sys.stdout.write("%d: %s\n" % (n, coeff))
    return 0


def _cmd_export(args) -> int:
    # opened before the table is computed, so a path that cannot be
    # written is a usage error that costs no table work
    try:
        handle = open(args.out, "wb")
    except OSError as exc:
        _log("error: cannot write %s: %s" % (args.out, exc.strerror or exc))
        return 2
    with handle:
        handle.write(_render_family(args.family, args.n_max, args.format, args.cache_dir))
    _log("wrote %s" % args.out)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command in ("table", "export"):
        try:
            args.cache_dir = _resolve_cache_dir(args.cache_dir)
        except OSError as exc:
            _log("error: unusable cache directory: %s" % exc)
            return 2
    # the subparsers are required, so the command is always one of these
    commands = {
        "table": _cmd_table,
        "oracle": _cmd_oracle,
        "verify": _cmd_verify,
        "series": _cmd_series,
        "export": _cmd_export,
    }
    try:
        status = commands[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered, and the flush at
        # exit, to /dev/null rather than into a second BrokenPipeError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


if __name__ == "__main__":
    sys.exit(main())
