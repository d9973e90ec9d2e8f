"""Deterministic number formatting for CLI outputs.

JSON carries 17 significant digits (exact float round trip), and so does
snapshots.csv, which the modes diagnostics read back. The other CSV files carry
12 (readable, still far below any asserted tolerance). No timestamps anywhere.
"""

import math

JSON_FMT = ".17g"
CSV_FMT = ".12g"


def fmt_json_float(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return format(x, JSON_FMT)
    return repr(x)


def fmt_csv_float(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return format(float(x), CSV_FMT)


def json_dumps(obj, indent=None, _level=0):
    """json.dumps clone with fixed float formatting.

    Key order is the dict insertion order, which callers keep deterministic.
    """
    pad = "" if indent is None else "\n" + " " * indent * (_level + 1)
    endpad = "" if indent is None else "\n" + " " * indent * _level
    if isinstance(obj, dict):
        items = ",".join(
            f"{pad}{json_dumps(str(k))}: {json_dumps(v, indent, _level + 1)}"
            for k, v in obj.items()
        )
        return "{" + items + (endpad if obj else "") + "}"
    if isinstance(obj, (list, tuple)):
        items = ",".join(f"{pad}{json_dumps(v, indent, _level + 1)}" for v in obj)
        return "[" + items + (endpad if len(obj) else "") + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return fmt_json_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    try:
        return fmt_json_float(float(obj))
    except (TypeError, ValueError):
        raise TypeError(f"cannot serialize {type(obj)!r}")
