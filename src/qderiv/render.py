"""Rendering of table-like results as json, csv, latex or aligned text.

A rendered family is an intermediate ``Table``: named typed columns plus
rows holding exact values (ints, polynomials, tuples).  ``_KINDS`` says,
once per column type, how a value becomes JSON text, a text or csv cell
and a cell of a flat LaTeX table.  The disk cache stores each format's
rendering byte for byte, so nothing reads rendered text back.

JSON is the text of ``json.dumps(payload, indent=2, sort_keys=True)`` of
the whole table.  The stdlib encoder renders only the header: each row is
written by its column kinds' ``json`` writers, with ``str`` joins that lay
out exactly what that call would, and the rows are joined once, so the
render never holds the table as a tree of JSON values; its peak is a
little over twice its output.
"""

from __future__ import annotations

import csv
import io
import json
import re
from typing import Callable, List, NamedTuple, Sequence, Tuple

from qderiv.ring import poly_str, xpoly_str

FORMATS = ("json", "csv", "latex", "text")


class Table(NamedTuple):
    """One rendered family: named typed ``columns`` and the ``rows`` of values.

    An immutable record, like every record of the package.
    """

    family: str
    n_max: int
    columns: Tuple[Tuple[str, str], ...]
    rows: Tuple[tuple, ...]
    outer_var: str = "t"

    def column_names(self) -> List[str]:
        return [name for name, _ in self.columns]


def _plain(value, outer: str) -> str:
    return str(value)


def _json_list(items: List[str], indent: str) -> str:
    """The JSON list of the encoded ``items``, as ``json.dumps(indent=2)``
    lays it out when ``indent`` (a newline and spaces) starts its line."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _json_ints(values: Sequence[int], indent: str, quote: str = "") -> str:
    """``_json_list`` of the ints ``values``: numbers, or with ``quote='"'``
    decimal strings, which need no escaping."""
    if not values:
        return "[]"
    inner = indent + "  "
    sep = quote + "," + inner + quote
    return "[" + inner + quote + sep.join(map(str, values)) + quote + indent + "]"


def _json_qpoly(poly, indent: str) -> str:
    """``QPoly.to_json()`` as JSON text: each coefficient a decimal string."""
    inner = indent + "  "
    return '{%s"coeffs": %s%s}' % (inner, _json_ints(poly.coeffs, inner, '"'), indent)


def _json_xqpoly(poly, indent: str) -> str:
    """``XQPoly.to_json()`` as JSON text: each coefficient a ``QPoly``."""
    inner = indent + "  "
    deeper = inner + "  "
    coeffs = _json_list([_json_qpoly(c, deeper) for c in poly.coeffs], inner)
    return '{%s"coeffs": %s%s}' % (inner, coeffs, indent)


class _Kind(NamedTuple):
    """How one column type becomes a cell in each format."""

    # (value, indent) -> the JSON text that json.dumps(indent=2,
    # sort_keys=True) writes for the cell when ``indent`` starts its line
    json: Callable
    display: Callable  # (value, outer variable) -> text and csv cell
    latex: Callable  # (value, outer variable) -> cell of a flat LaTeX table


_KINDS = {
    # a decimal string, which needs no escaping
    "int": _Kind(lambda v, indent: '"%d"' % v, _plain, _plain),
    "str": _Kind(lambda v, indent: json.dumps(v), _plain, _plain),
    # a tuple of ints, a JSON list of numbers
    "parts": _Kind(
        _json_ints,
        lambda v, outer: "(%s)" % " ".join(map(str, v)),
        lambda v, outer: "$(%s)$" % ",".join(map(str, v)),
    ),
    "qpoly": _Kind(
        _json_qpoly,
        lambda v, outer: poly_str(v),
        lambda v, outer: "$%s$" % _latex_caret(poly_str(v)),
    ),
    "xqpoly": _Kind(
        _json_xqpoly,
        lambda v, outer: xpoly_str(v, outer=outer),
        lambda v, outer: "$%s$" % _latex_caret(xpoly_str(v, outer=outer)),
    ),
}


def _cells(table: Table, field: str) -> List[List[str]]:
    """Every row's cells, made by each column kind's ``display`` or ``latex``."""
    makers = [getattr(_KINDS[kind], field) for _, kind in table.columns]
    outer = table.outer_var
    return [[make(v, outer) for make, v in zip(makers, row)] for row in table.rows]


def _render_json(table: Table) -> str:
    """The header encoded with ``"rows": []``, then each row spliced in."""
    header = json.dumps(
        {
            "family": table.family,
            "n_max": table.n_max,
            "outer_var": table.outer_var,
            "columns": [list(c) for c in table.columns],
            "rows": [],
        },
        indent=2,
        sort_keys=True,
    )
    if not table.rows:
        return header
    # "rows" sorts last, so the header ends with its empty list; a row sits
    # two levels deep, its cells three
    head, _, tail = header.rpartition("[]")
    writers = [_KINDS[kind].json for _, kind in table.columns]
    row_indent, cell_indent = "\n    ", "\n      "
    chunks = [head]
    sep = "[" + row_indent
    for row in table.rows:
        chunks.append(sep)
        chunks.append(_json_list([w(v, cell_indent) for w, v in zip(writers, row)], row_indent))
        sep = "," + row_indent
    chunks += ["\n  ]", tail]
    return "".join(chunks)


def render(table: Table, fmt: str) -> str:
    if fmt == "json":
        return _render_json(table)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table.column_names())
        writer.writerows(_cells(table, "display"))
        return buf.getvalue()
    if fmt == "text":
        return _render_text(table)
    if fmt == "latex":
        return _render_latex(table)
    raise ValueError("unknown format %r" % (fmt,))


def _render_text(table: Table) -> str:
    header = table.column_names()
    cells = [header] + _cells(table, "display")
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _latex_caret(text: str) -> str:
    return re.sub(r"\^([0-9]*)", r"^{\1}", text).replace("*", "\\,")


def _render_latex(table: Table) -> str:
    if table.family in ("A", "B"):
        return _latex_triple_grid(table)
    if table.family == "Ac":
        return _latex_comp_grid(table)
    if table.family in ("a_small", "b_small", "fib"):
        return _latex_triangle(table)
    return _latex_flat(table)


def _latex_flat(table: Table) -> str:
    header = table.column_names()
    lines = [
        "\\begin{tabular}{%s}" % ("l" * len(header)),
        " & ".join("\\textbf{%s}" % h for h in header) + " \\\\",
        "\\hline",
    ]
    lines += [" & ".join(cells) + " \\\\" for cells in _cells(table, "latex")]
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


def _latex_grid(cells: dict, n_max: int) -> str:
    """n-by-m grid with the entries of one cell stacked in an array."""
    m_top = max((m for (_, m) in cells), default=0)
    lines = [
        "\\begin{tabular}{|c|%s}" % ("c|" * (m_top + 1)),
        "\\hline",
        " & ".join(["$n$"] + ["$m{=}%d$" % m for m in range(m_top + 1)]) + " \\\\",
        "\\hline",
    ]
    for n in range(n_max + 1):
        row = ["$%d$" % n]
        for m in range(m_top + 1):
            entries = cells.get((n, m), ())
            if not entries:
                row.append("")
            elif len(entries) == 1:
                row.append("$%s$" % entries[0])
            else:
                row.append(
                    "$\\begin{array}{l}%s\\end{array}$" % " \\\\ ".join(entries)
                )
        lines.append(" & ".join(row) + " \\\\")
        lines.append("\\hline")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


def _latex_triple_grid(table: Table) -> str:
    cells: dict = {}
    for n, k, a, b, poly in table.rows:
        label = "%s_{%d,%d,%d,%d} = %s" % (
            table.family, n, k, a, b, _latex_caret(poly_str(poly)),
        )
        cells.setdefault((n, a + b), []).append(label)
    return _latex_grid(cells, table.n_max)


def _latex_comp_grid(table: Table) -> str:
    cells: dict = {}
    for n, parts, poly in table.rows:
        label = "A_{%d(%s)} = %s" % (
            n, "".join(str(p) for p in parts), _latex_caret(poly_str(poly)),
        )
        cells.setdefault((n, len(parts) - 1), []).append(label)
    return _latex_grid(cells, table.n_max)


def _latex_triangle(table: Table) -> str:
    cells: dict = {}
    if table.family == "fib":
        for n, m, av, bv in table.rows:
            if m > n + 2:
                continue
            if av:
                cells.setdefault((n, m), []).append("\\mathbf{%d}" % av)
            if bv:
                cells.setdefault((n, m), []).append("%d" % bv)
    else:
        bold = table.family == "a_small"
        for n, m, value in table.rows:
            text = "\\mathbf{%d}" % value if bold else "%d" % value
            cells.setdefault((n, m), []).append(text)
    return _latex_grid(cells, table.n_max)
