"""Deterministic number formatting for CLI outputs.

JSON is written by the standard library's json.dumps, whose floats are the
shortest repr that round-trips exactly (NaN and infinities as NaN and
Infinity). CSV files carry 12 significant digits (readable, still far below
any asserted tolerance). No timestamps anywhere.
"""

import math

CSV_FMT = ".12g"


def _csv_cell(x):
    return "" if math.isnan(x) else format(float(x), CSV_FMT)


def csv_table(header, columns):
    """CSV text: the header line, then one line per row of the equal-length
    numeric columns, each value at CSV_FMT, NaN left blank."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_csv_cell, row)) for row in zip(*columns))
    return "\n".join(lines) + "\n"
