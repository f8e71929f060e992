"""Report output for the benchmark harness: text tables and ``BENCH_*.json``."""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import BenchmarkError


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Format a simple aligned text table."""
    rendered_rows: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    separator = "  ".join("-" * width for width in widths)
    output = [line(list(headers)), separator]
    output.extend(line(row) for row in rendered_rows)
    return "\n".join(output)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_bytes(num_bytes: int) -> str:
    """Human readable byte counts (for workload footprints)."""
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}"
        value /= 1024
    return f"{value:.1f} GiB"


def json_number(value: Optional[float]) -> Optional[float]:
    """Non-finite floats become ``None``: ``json.dump`` would otherwise emit
    ``NaN``/``Infinity``, which is not valid JSON for strict consumers of the
    ``BENCH_*.json`` artifacts."""
    if value is None or not math.isfinite(value):
        return None
    return value


def write_report(
    result, path: str, quick: bool = False, extra: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Write ``result.as_dict()`` plus run metadata as a ``BENCH_*.json`` file."""
    payload = dict(result.as_dict())
    payload["quick"] = quick
    payload.update(extra or {})
    payload["created_unix"] = time.time()
    with open(path, "w", encoding="utf-8") as handle:
        # allow_nan=False: the report must stay valid JSON for strict
        # consumers (jq, JSON.parse); as_dict maps non-finite numbers to
        # null through json_number.
        json.dump(payload, handle, indent=2, allow_nan=False)
        handle.write("\n")
    return payload


def run_and_report(
    run: Callable[[], object],
    output: Optional[str],
    as_json: bool,
    quick: bool = False,
    extra: Optional[Dict[str, object]] = None,
) -> int:
    """Run one benchmark, write its report to ``output`` and print it.

    The exit status: 1 when the benchmark raises :class:`BenchmarkError`
    or the report cannot be written, else 0.  With ``output=None`` nothing
    is written and ``--json`` prints the bare result.
    """
    try:
        result = run()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = result.as_dict()
    if output is not None:
        try:
            payload = write_report(result, output, quick=quick, extra=extra)
        except OSError as exc:
            print(f"error: cannot write report to {output!r}: {exc}", file=sys.stderr)
            return 1
    if as_json:
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print(result.to_table())
    if output is not None:
        print(f"wrote {output}", file=sys.stderr)
    return 0


def progress(message: str) -> None:
    """The harness's progress callback: one line on standard error."""
    print(message, file=sys.stderr)
