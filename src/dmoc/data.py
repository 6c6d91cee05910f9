"""Profile ingestion and writing, and synthetic generation.

Data files are plain CSV, one sample per row, with an optional header row
(auto-detected and skipped). Floats are written with 9 significant digits.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .core import DataFormatError, DataSet


def format_float(v: float) -> str:
    return f"{float(v):.9g}"


def _parse_cell(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataFormatError(
            f"row {row}, column {col}: {cell!r} is not a number", row=row, col=col
        ) from None
    if not math.isfinite(value):
        raise DataFormatError(
            f"row {row}, column {col}: non-finite value {cell!r}", row=row, col=col
        )
    if value < 0:
        raise DataFormatError(
            f"row {row}, column {col}: negative value {cell!r}", row=row, col=col
        )
    return value


def _parse_row(cells: list[str], row: int) -> np.ndarray:
    """File row ``row`` as floats; a bad row goes through ``_parse_cell``, which names its cell."""
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
        if 0 <= values.min() and values.max() < math.inf:  # NaN fails the first test
            return values
    except ValueError:
        pass
    return np.array([_parse_cell(c.strip(), row, j) for j, c in enumerate(cells, start=1)])


def _is_header(cells: list[str]) -> bool:
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def load_profiles(path) -> DataSet:
    """Read an N x d profile CSV into a DataSet.

    Rejects negative and non-finite entries (reporting the 1-based row and
    column) and ragged rows.
    """
    path = Path(path)
    rows: list[np.ndarray] = []
    width = None
    with path.open(newline="", encoding="utf-8-sig") as fh:  # utf-8-sig drops a leading BOM
        lines = ((i, c) for i, c in enumerate(csv.reader(fh), start=1) if c and (len(c) > 1 or c[0].strip()))
        # a header can only be the first non-blank row; i stays the row's number in the file
        for k, (i, cells) in enumerate(lines):
            if k == 0 and _is_header(cells):
                continue
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DataFormatError(
                    f"row {i}: expected {width} columns, found {len(cells)}", row=i
                )
            rows.append(_parse_row(cells, i))
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return DataSet(np.asarray(rows))


def write_csv(path, header: list[str] | None, rows) -> None:
    """Write rows as CSV under an optional header, floats with 9 significant digits;
    missing parent directories are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([format_float(v) if isinstance(v, float) else str(v) for v in row])


def save_profiles(data: DataSet, path) -> None:
    """Write a DataSet as CSV (no header, 9 significant digits)."""
    write_csv(path, None, data.values)


def gen_synthetic_pcs(
    archetypes: int = 3,
    n_slots: int = 24,
    n_samples: int = 365,
    seed: int = 0,
    peak_kw: float = 2.0,
    base_kw: float = 0.4,
    jitter: int = 1,
) -> DataSet:
    """Synthetic non-controllable profiles with planted peak-time archetypes.

    Each sample is a smooth base load (random overall scale) plus one dominant
    bump whose slot is the sample's archetype slot shifted by up to ``jitter``
    (wrapping around the day). With jitter = 0 the peak slot of every sample
    is exactly its archetype slot.
    """
    if archetypes < 1:
        raise ValueError("archetypes must be >= 1")
    if jitter < 0:
        raise ValueError("jitter must be >= 0")
    rng = np.random.default_rng(seed)
    slots = np.array([((2 * i + 1) * n_slots) // (2 * archetypes) for i in range(archetypes)])

    kinds = rng.integers(archetypes, size=n_samples)
    shifts = rng.integers(-jitter, jitter + 1, size=n_samples)
    scales = rng.uniform(0.6, 1.4, size=n_samples)
    heights = peak_kw * rng.uniform(0.85, 1.15, size=n_samples)
    noise = rng.uniform(0.0, 0.05 * base_kw, size=(n_samples, n_slots))

    t = np.arange(n_slots)
    shape = 1.0 + 0.25 * np.sin(2.0 * np.pi * (t + 2) / n_slots)
    values = base_kw * scales[:, None] * shape[None, :] + noise
    peak_slots = (slots[kinds] + shifts) % n_slots
    rows = np.arange(n_samples)
    values[rows, peak_slots] += heights
    values[rows, (peak_slots - 1) % n_slots] += 0.35 * heights
    values[rows, (peak_slots + 1) % n_slots] += 0.35 * heights
    return DataSet(values)
