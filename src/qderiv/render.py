"""Rendering of table-like results as json, csv, latex or aligned text.

A rendered family is an intermediate ``Table``: named typed columns plus
rows holding exact values (ints, polynomials, tuples).  The JSON form is
the interchange format and round-trips bit-exactly; the disk cache stores
``render(table, "json")`` byte for byte, so a json cache hit is the same
text with no decode or re-encode.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from typing import List, Tuple

from qderiv.ring import QPoly, XQPoly, poly_str, xpoly_str

FORMATS = ("json", "csv", "latex", "text")

# column types: "int", "str", "parts" (tuple of ints), "qpoly", "xqpoly"


@dataclass(frozen=True)
class Table:
    family: str
    n_max: int
    columns: Tuple[Tuple[str, str], ...]
    rows: Tuple[tuple, ...]
    outer_var: str = "t"

    def column_names(self) -> List[str]:
        return [name for name, _ in self.columns]


def _encode_value(value, kind: str):
    if kind == "int":
        return str(value)
    if kind == "str":
        return value
    if kind == "parts":
        return list(value)
    if kind in ("qpoly", "xqpoly"):
        return value.to_json()
    raise ValueError("unknown column type %r" % (kind,))


def _decode_value(value, kind: str):
    if kind == "int":
        return int(value)
    if kind == "str":
        return value
    if kind == "parts":
        return tuple(value)
    if kind == "qpoly":
        return QPoly.from_json(value)
    if kind == "xqpoly":
        return XQPoly.from_json(value)
    raise ValueError("unknown column type %r" % (kind,))


def table_to_payload(table: Table) -> dict:
    return {
        "family": table.family,
        "n_max": table.n_max,
        "outer_var": table.outer_var,
        "columns": [list(c) for c in table.columns],
        "rows": [
            [_encode_value(v, kind) for v, (_, kind) in zip(row, table.columns)]
            for row in table.rows
        ],
    }


def table_from_payload(payload: dict) -> Table:
    columns = tuple((name, kind) for name, kind in payload["columns"])
    rows = tuple(
        tuple(_decode_value(v, kind) for v, (_, kind) in zip(row, columns))
        for row in payload["rows"]
    )
    return Table(
        payload["family"], payload["n_max"], columns, rows, payload.get("outer_var", "t")
    )


def _display(value, kind: str, outer: str) -> str:
    if kind == "qpoly":
        return poly_str(value)
    if kind == "xqpoly":
        return xpoly_str(value, outer=outer)
    if kind == "parts":
        return "(" + " ".join(str(p) for p in value) + ")"
    return str(value)


def render(table: Table, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(table_to_payload(table), indent=2, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table.column_names())
        for row in table.rows:
            writer.writerow(
                [_display(v, kind, table.outer_var) for v, (_, kind) in zip(row, table.columns)]
            )
        return buf.getvalue()
    if fmt == "text":
        return _render_text(table)
    if fmt == "latex":
        return _render_latex(table)
    raise ValueError("unknown format %r" % (fmt,))


def _render_text(table: Table) -> str:
    header = table.column_names()
    cells = [header]
    for row in table.rows:
        cells.append(
            [_display(v, kind, table.outer_var) for v, (_, kind) in zip(row, table.columns)]
        )
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
    for row in table.rows:
        cells = []
        for v, (_, kind) in zip(row, table.columns):
            if kind in ("qpoly", "xqpoly"):
                cells.append("$" + _latex_caret(_display(v, kind, table.outer_var)) + "$")
            elif kind == "parts":
                cells.append("$(%s)$" % ",".join(str(p) for p in v))
            else:
                cells.append(str(v))
        lines.append(" & ".join(cells) + " \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


def _latex_grid(family: str, cells: dict, n_max: int) -> str:
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
    return _latex_grid(table.family, cells, table.n_max)


def _latex_comp_grid(table: Table) -> str:
    cells: dict = {}
    for n, parts, poly in table.rows:
        label = "A_{%d(%s)} = %s" % (
            n, "".join(str(p) for p in parts), _latex_caret(poly_str(poly)),
        )
        cells.setdefault((n, len(parts) - 1), []).append(label)
    return _latex_grid(table.family, cells, table.n_max)


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
    return _latex_grid(table.family, cells, table.n_max)
