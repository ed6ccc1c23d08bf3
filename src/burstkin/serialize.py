"""Plain CSV emitters for the batch front end.

Every writer produces the same bytes for the same inputs: fixed headers,
17 significant digits for floats, LF line endings, rows in the natural
order of the data.  That is what makes rerun-diffing of artifacts a
meaningful check.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "format_float",
    "write_csv",
    "write_pmf_csv",
    "write_trace_csv",
    "write_density_csv",
    "write_trajectory_csv",
    "write_modes_csv",
    "write_pairs_csv",
]


def format_float(x: float) -> str:
    """17 significant digits, enough to round-trip any double: 0.1 is
    written 0.10000000000000001."""
    return "%.17g" % float(x)


# rows formatted by one % over a repeated row format; 1024 rows of three
# columns peak near 200 KiB, a quarter of 4096 rows, and take the same time
_CHUNK = 1024


def write_csv(path, header: str, row_format: str, columns: Sequence[Sequence]) -> None:
    """``header``, then one ``row_format`` line per row of ``columns``.

    Rows are formatted _CHUNK at a time with one ``%`` over the row format
    repeated, ``%.17g`` giving format_float's digits.  Columns of unequal
    length stop at the shortest, as zip would.
    """
    k = len(columns)
    n = min(len(c) for c in columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            flat = [None] * (k * (hi - lo))
            for j, c in enumerate(columns):
                part = c[lo:hi]
                flat[j::k] = part.tolist() if isinstance(part, np.ndarray) else part
            fh.write(row_format * (hi - lo) % tuple(flat))


def write_pmf_csv(path, values: np.ndarray) -> None:
    """States 0..n_max with their probabilities; header ``n,p``."""
    write_csv(path, "n,p", "%d,%.17g\n", (range(len(values)), values))


def write_trace_csv(path, times: np.ndarray, l1: np.ndarray) -> None:
    """Distance-to-stationarity trace; header ``t,l1_distance``."""
    write_csv(path, "t,l1_distance", "%.17g,%.17g\n", (times, l1))


def write_density_csv(path, grid: np.ndarray, values: np.ndarray) -> None:
    """Grid density; header ``x,u``."""
    write_csv(path, "x,u", "%.17g,%.17g\n", (grid, values))


def write_trajectory_csv(path, times: np.ndarray,
                         y_pre: np.ndarray, y_post: np.ndarray) -> None:
    """Jump skeleton, one row per jump; header ``k,t,y_pre,y_post``.

    ``times`` carries the extra leading t = 0 entry, so jump k pairs
    times[k] with y_pre[k-1]/y_post[k-1].
    """
    write_csv(path, "k,t,y_pre,y_post", "%d,%.17g,%.17g,%.17g\n",
              (range(1, len(y_pre) + 1), times[1:len(y_pre) + 1], y_pre, y_post))


def write_modes_csv(path, roots: Sequence[float], kinds: Sequence[str]) -> None:
    """Mode census; header ``x_root,kind``."""
    write_csv(path, "x_root,kind", "%.17g,%s\n", (roots, kinds))


def write_pairs_csv(path, header: str, xs: np.ndarray, ys: np.ndarray) -> None:
    """Two float columns under a caller-chosen header."""
    write_csv(path, header, "%.17g,%.17g\n", (xs, ys))
