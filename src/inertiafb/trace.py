"""Append-only solver traces and their CSV serialization.

One row per outer iteration.  ``CSV_COLUMNS`` is the row: every solver row
holds exactly these keys, the CSV writes each of them and the reader
requires each of them, so the certifier sees the same rows in memory and
from a file.  ``prox_branch`` and ``accepted_branch`` are text.  Run-level
metadata travels as ``# key=value`` comment lines at the top of the file.
"""

from __future__ import annotations

from typing import Optional

CSV_COLUMNS = ["k", "time_s", "f", "phi", "h", "delta_k", "d_k", "alpha_k",
               "beta_k", "L_or_gamma", "lambda_k", "inner_iters", "backtracks",
               "psi", "x_step_norm", "y_step_norm", "s_step_norm",
               "prox_branch", "accepted_branch"]

_INT_COLUMNS = {"k", "inner_iters", "backtracks"}
_STR_COLUMNS = {"prox_branch", "accepted_branch"}


def _fmt(value) -> str:
    """A float with 17 significant digits, which read back exactly;
    anything else by ``str``."""
    return format(value, ".17g") if isinstance(value, float) else str(value)


class Trace:
    """Sequence of per-iteration rows plus run metadata."""

    def __init__(self, meta: Optional[dict] = None):
        self.meta = dict(meta or {})
        self.rows: list[dict] = []
        #: final iterate, populated by solvers; never serialized
        self.x_final = None

    def append(self, **row) -> dict:
        self.rows.append(row)
        return row

    def __len__(self):
        return len(self.rows)

    def column(self, name: str) -> list:
        """Raises KeyError for a column a row lacks."""
        return [r[name] for r in self.rows]

    def write_csv(self, path, f_star: Optional[float] = None) -> None:
        columns = list(CSV_COLUMNS)
        if f_star is not None:
            columns.append("rel_gap")
        with open(path, "w") as fh:
            for key in sorted(self.meta):
                fh.write(f"# {key}={_fmt(self.meta[key])}\n")
            fh.write(",".join(columns) + "\n")
            for row in self.rows:
                vals = [_fmt(row[col]) for col in CSV_COLUMNS]
                if f_star is not None:
                    vals.append(_fmt((row["f"] - f_star) / abs(f_star)))
                fh.write(",".join(vals) + "\n")

    @classmethod
    def read_csv(cls, path) -> "Trace":
        """Raises ValueError, naming the line, on a header without every
        ``CSV_COLUMNS`` column or with a column named twice, a row of the
        wrong width or a bad number."""
        trace = cls()
        header: Optional[list] = None
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, val = line[1:].strip().partition("=")
                    trace.meta[key.strip()] = _parse_meta(val)
                    continue
                parts = line.split(",")
                if header is None:
                    missing = [c for c in CSV_COLUMNS if c not in parts]
                    if missing:
                        raise ValueError(f"{path}:{lineno}: header lacks "
                                         f"{', '.join(missing)}")
                    if twice := sorted({c for c in parts
                                        if parts.count(c) > 1}):
                        raise ValueError(f"{path}:{lineno}: header names "
                                         f"{', '.join(twice)} twice")
                    header = parts
                    continue
                if len(parts) != len(header):
                    raise ValueError(f"{path}:{lineno}: {len(parts)} fields, "
                                     f"header has {len(header)}")
                row = {}
                for col, raw in zip(header, parts):
                    cast = (int if col in _INT_COLUMNS else
                            str if col in _STR_COLUMNS else float)
                    try:
                        row[col] = cast(raw)
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: bad {col} value "
                                         f"{raw!r}") from None
                trace.rows.append(row)
        return trace


def _parse_meta(raw: str):
    raw = raw.strip()
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def csv_equal_ignoring_time(path_a, path_b) -> bool:
    """Byte comparison of two trace files with the time_s column blanked."""
    return _strip_time(path_a) == _strip_time(path_b)


def _strip_time(path) -> list:
    out = []
    idx = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                out.append(line)
                continue
            parts = line.split(",")
            if idx is None:
                idx = parts.index("time_s")
            else:
                parts[idx] = ""
            out.append(",".join(parts))
    return out
