import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aesa_chain import GridAxis, read_grid, write_csv, write_grid


AXES = (GridAxis(start=1500.0, step=2.4, unit="m"),
        GridAxis(start=-15.0, step=0.234, unit="m/s"))


def test_real_roundtrip(tmp_path):
    values = np.arange(12.0).reshape(3, 4)
    path = write_grid(tmp_path / "map.aesg", values, *AXES)
    grid = read_grid(path)
    np.testing.assert_array_equal(grid.values, values.astype(np.float32))
    assert grid.row_axis == AXES[0]
    assert grid.col_axis == AXES[1]


def test_complex_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    grid = read_grid(write_grid(tmp_path / "map.aesg", values, *AXES))
    assert grid.values.dtype == np.complex64
    np.testing.assert_allclose(grid.values, values.astype(np.complex64))


def test_complex_roundtrip_keeps_infinite_and_nan_parts(tmp_path):
    # each part reads back as written, without a warning: 1j * inf is
    # nan + inf j, so building a value as re + 1j * im turned 1 + inf j into
    # nan + inf j
    parts = [1.0, -0.0, np.inf, -np.inf, np.nan]
    values = np.array([[complex(re, im) for im in parts] for re in parts], dtype=np.complex64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = read_grid(write_grid(tmp_path / "map.aesg", values, *AXES))
    assert grid.values.dtype == np.complex64
    assert grid.values.tobytes() == values.tobytes()


def test_writes_are_byte_deterministic(tmp_path):
    values = np.linspace(0.0, 1.0, 20).reshape(4, 5)
    a = write_grid(tmp_path / "a.aesg", values, *AXES).read_bytes()
    b = write_grid(tmp_path / "b.aesg", values, *AXES).read_bytes()
    assert a == b


def test_header_layout(tmp_path):
    values = np.zeros((2, 3), dtype=np.float32)
    buf = write_grid(tmp_path / "h.aesg", values, *AXES).read_bytes()
    assert buf[:4] == b"AESG"
    version, kind, rows, cols = struct.unpack_from("<HBII", buf, 4)
    assert (version, kind, rows, cols) == (1, 0, 2, 3)
    start, step, n_unit = struct.unpack_from("<ddH", buf, 15)
    assert (start, step) == (1500.0, 2.4)
    assert buf[33:33 + n_unit] == b"m"
    # payload is rows * cols float32 at the tail
    assert len(buf[-24:]) == 2 * 3 * 4


def test_read_rejects_corrupt_files(tmp_path):
    bad = tmp_path / "bad.aesg"
    bad.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(ValueError, match="magic"):
        read_grid(bad)
    values = np.zeros((2, 2))
    path = write_grid(tmp_path / "v.aesg", values, *AXES)
    buf = bytearray(path.read_bytes())
    buf[4] = 99  # version field
    path.write_bytes(bytes(buf))
    with pytest.raises(ValueError, match="version"):
        read_grid(path)
    with pytest.raises(ValueError, match="2-D"):
        write_grid(tmp_path / "x.aesg", np.zeros(4), *AXES)


def test_read_rejects_wrong_lengths(tmp_path):
    path = write_grid(tmp_path / "v.aesg", np.ones((3, 4)), *AXES)
    buf = path.read_bytes()
    header = len(buf) - 3 * 4 * 4
    cases = (
        (buf[:-5], r"needs 48 payload bytes, found 43"),
        (buf + b"\0\0", r"needs 48 payload bytes, found 50"),
        (buf[:10], r"truncated grid header: need at least 15 bytes, file has 10"),
        (buf[:header - 1], r"truncated grid header"),
    )
    for data, message in cases:
        path.write_bytes(data)
        with pytest.raises(ValueError, match=message) as err:
            read_grid(path)
        assert str(path) in str(err.value)


def _rejected(path, data):
    path.write_bytes(data)
    with pytest.raises(ValueError) as err:
        read_grid(path)
    assert str(path) in str(err.value)


def test_read_rejects_corrupt_axes(tmp_path):
    path = write_grid(tmp_path / "v.aesg", np.ones((2, 3)), *AXES)
    buf = path.read_bytes()
    # f64 start and step of the row axis, then of the column axis
    for offset in (15, 23, 34, 42):
        for bad in (np.nan, np.inf, -np.inf):
            _rejected(path, buf[:offset] + struct.pack("<d", bad) + buf[offset + 8:])
    _rejected(path, buf[:33] + b"\xff" + buf[34:])  # the unit "m" as an invalid byte
    with pytest.raises(ValueError, match="UTF-8"):
        read_grid(path)
    for bad in (GridAxis(np.nan, 1.0, "m"), GridAxis(0.0, np.inf, "m")):
        with pytest.raises(ValueError, match="finite"):
            write_grid(tmp_path / "w.aesg", np.ones((2, 2)), bad, AXES[1])


FINITE = st.floats(allow_nan=False, allow_infinity=False)
AXIS = st.builds(GridAxis, FINITE, FINITE, st.text(max_size=6))


@st.composite
def grids(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(rows, cols))
    if draw(st.booleans()):
        values = values + 1j * rng.normal(size=(rows, cols))
    return values, draw(AXIS), draw(AXIS)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(grids())
def test_round_trip_and_corruption_over_generated_grids(tmp_path_factory, grid):
    values, row_axis, col_axis = grid
    path = write_grid(tmp_path_factory.mktemp("grid") / "g.aesg", values, row_axis, col_axis)
    read = read_grid(path)
    np.testing.assert_array_equal(read.values, values.astype(read.values.dtype))
    assert read.values.dtype == (np.complex64 if np.iscomplexobj(values) else np.float32)
    assert (read.row_axis, read.col_axis) == (row_axis, col_axis)
    buf = path.read_bytes()
    for cut in range(len(buf)):
        _rejected(path, buf[:cut])
    # setting the top bit of a unit's first byte never leaves valid UTF-8
    col_unit = 51 + len(row_axis.unit.encode("utf-8"))
    for offset, unit in ((33, row_axis.unit), (col_unit, col_axis.unit)):
        if unit:
            _rejected(path, buf[:offset] + bytes([buf[offset] ^ 0x80]) + buf[offset + 1:])


def test_write_csv_fixed_newlines(tmp_path):
    path = write_csv(tmp_path / "t.csv", ("a", "b"), [(1, 2.5), ("x", -3)])
    raw = path.read_bytes()
    assert raw == b"a,b\n1,2.5\nx,-3\n"
