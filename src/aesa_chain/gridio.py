"""Binary grid file format and deterministic CSV helpers.

Grid layout (all little-endian):

========  ======================================================
bytes     content
========  ======================================================
4         magic ``AESG``
u16       format version (currently 1)
u8        payload kind: 0 = real float32, 1 = complex (f32 pairs)
u32, u32  rows, cols
axis x2   row axis then column axis, each:
          f64 start, f64 step, u16 unit length, UTF-8 unit bytes
payload   row-major float32 values; complex values are stored as
          interleaved (real, imag) pairs
========  ======================================================

Writers emit bytes deterministically so identical arrays always produce
identical files.
"""

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"AESG"
VERSION = 1


@dataclass(frozen=True)
class GridAxis:
    """Uniform axis descriptor: physical value = start + index * step."""

    start: float
    step: float
    unit: str


@dataclass
class Grid:
    """A 2-D grid with physical axes, as stored in the binary format."""

    values: np.ndarray
    row_axis: GridAxis
    col_axis: GridAxis


def _pack_axis(axis: GridAxis) -> bytes:
    if not (math.isfinite(axis.start) and math.isfinite(axis.step)):
        raise ValueError("axis start and step must be finite")
    unit = axis.unit.encode("utf-8")
    if len(unit) > 0xFFFF:
        raise ValueError("axis unit string too long")
    return struct.pack("<ddH", float(axis.start), float(axis.step), len(unit)) + unit


def _require_header(path, buf: bytes, end: int) -> None:
    if len(buf) < end:
        raise ValueError(f"{path}: truncated grid header: need at least {end} bytes, "
                         f"file has {len(buf)}")


def _unpack_axis(path, buf: bytes, offset: int):
    _require_header(path, buf, offset + struct.calcsize("<ddH"))
    start, step, n = struct.unpack_from("<ddH", buf, offset)
    offset += struct.calcsize("<ddH")
    _require_header(path, buf, offset + n)
    if not (math.isfinite(start) and math.isfinite(step)):
        raise ValueError(f"{path}: non-finite axis start {start} or step {step}")
    try:
        unit = buf[offset:offset + n].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: axis unit is not UTF-8 ({exc.reason})") from None
    return GridAxis(start=start, step=step, unit=unit), offset + n


def write_grid(path, values: np.ndarray, row_axis: GridAxis, col_axis: GridAxis) -> Path:
    """Write a real or complex 2-D array in the binary grid format."""
    path = Path(path)
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError("grid payload must be 2-D")
    if np.iscomplexobj(arr):
        kind = 1
        payload = np.empty(arr.shape + (2,), dtype="<f4")
        payload[..., 0] = arr.real
        payload[..., 1] = arr.imag
    else:
        kind = 0
        payload = arr.astype("<f4")
    rows, cols = arr.shape
    header = MAGIC + struct.pack("<HBII", VERSION, kind, rows, cols)
    header += _pack_axis(row_axis) + _pack_axis(col_axis)
    path.write_bytes(header + payload.tobytes(order="C"))
    return path


def read_grid(path) -> Grid:
    """Read a grid file back into an array with its axis descriptors."""
    buf = Path(path).read_bytes()
    if buf[:4] != MAGIC:
        raise ValueError(f"{path}: not a grid file (bad magic)")
    offset = 4 + struct.calcsize("<HBII")
    _require_header(path, buf, offset)
    version, kind, rows, cols = struct.unpack_from("<HBII", buf, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported grid version {version}")
    if kind not in (0, 1):
        raise ValueError(f"{path}: unknown payload kind {kind}")
    row_axis, offset = _unpack_axis(path, buf, offset)
    col_axis, offset = _unpack_axis(path, buf, offset)
    count = rows * cols * (1 + kind)
    if len(buf) - offset != 4 * count:
        raise ValueError(f"{path}: a {rows} x {cols} grid needs {4 * count} payload "
                         f"bytes, found {len(buf) - offset}")
    flat = np.frombuffer(buf, dtype="<f4", count=count, offset=offset)
    if kind == 0:
        values = flat.reshape(rows, cols).copy()
    else:
        pairs = flat.reshape(rows, cols, 2)
        values = (pairs[..., 0] + 1j * pairs[..., 1]).astype(np.complex64)
    return Grid(values=values, row_axis=row_axis, col_axis=col_axis)


def write_csv(path, header, rows) -> Path:
    """Write pre-formatted CSV rows with a fixed newline convention."""
    path = Path(path)
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path
