"""Field file round-trip and corruption handling."""

import struct

import numpy as np
import pytest

from nlsbump.errors import FormatError
from nlsbump.fieldio import (FORMAT_VERSION, MAGIC, read_field, write_field)
from nlsbump.grid import make_grid


def sample_field(dim):
    """(values, grid) of a random field."""
    counts = {1: [23], 2: [13, 9], 3: [10, 9, 8]}[dim]
    grid = make_grid(lo=[-2.0] * dim, hi=[1.5] * dim, counts=counts)
    rng = np.random.default_rng(7 + dim)
    return rng.standard_normal(grid.counts), grid


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_round_trip_is_bit_exact(tmp_path, dim):
    values, grid = sample_field(dim)
    path = tmp_path / "u.nlsb"
    write_field(path, values, grid, eps=0.3, p=4.0)
    back, back_grid, eps, p = read_field(path)
    assert eps == 0.3 and p == 4.0
    assert np.array_equal(back_grid.lo, grid.lo)
    assert np.array_equal(back_grid.hi, grid.hi)
    assert tuple(back_grid.counts) == tuple(grid.counts)
    assert np.array_equal(back, values)


def test_rewriting_the_same_field_is_byte_identical(tmp_path):
    field = sample_field(2)
    a, b = tmp_path / "a.nlsb", tmp_path / "b.nlsb"
    write_field(a, *field, eps=0.25, p=4.0)
    write_field(b, *field, eps=0.25, p=4.0)
    assert a.read_bytes() == b.read_bytes()


def test_values_with_odd_bit_patterns_survive(tmp_path):
    grid = make_grid(lo=[0.0], hi=[1.0], counts=[8])
    vals = np.array([0.1, -0.0, 5e-324, 1e308, 0.30000000000000004,
                     1.0 / 3.0, -1e-308, 2.0 ** -1022])
    path = tmp_path / "bits.nlsb"
    write_field(path, vals, grid, eps=1.0, p=3.0)
    back = read_field(path)[0]
    assert back.tobytes() == vals.tobytes()


def test_non_finite_payload_is_rejected(tmp_path):
    field = sample_field(1)
    path = tmp_path / "u.nlsb"
    write_field(path, *field, eps=0.3, p=4.0)
    blob = bytearray(path.read_bytes())
    blob[-8:] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="non-finite"):
        read_field(path)


def test_wrong_magic_is_rejected(tmp_path):
    path = tmp_path / "u.nlsb"
    write_field(path, *sample_field(1), eps=0.3, p=4.0)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XLSB"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        read_field(path)


def test_unknown_version_is_rejected(tmp_path):
    path = tmp_path / "u.nlsb"
    write_field(path, *sample_field(1), eps=0.3, p=4.0)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        read_field(path)


def test_truncated_payload_is_rejected(tmp_path):
    path = tmp_path / "u.nlsb"
    write_field(path, *sample_field(2), eps=0.3, p=4.0)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError, match="truncated"):
        read_field(path)


def test_trailing_bytes_are_rejected(tmp_path):
    path = tmp_path / "u.nlsb"
    write_field(path, *sample_field(2), eps=0.3, p=4.0)
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(FormatError, match="trailing"):
        read_field(path)


def test_truncated_header_is_rejected(tmp_path):
    path = tmp_path / "u.nlsb"
    path.write_bytes(MAGIC + b"\x01")
    with pytest.raises(FormatError, match="truncated"):
        read_field(path)


def test_mismatched_values_shape_is_rejected(tmp_path):
    values, grid = sample_field(2)
    with pytest.raises(ValueError):
        write_field(tmp_path / "u.nlsb", values[:-1, :], grid, eps=0.3,
                    p=4.0)


def test_header_counts_whose_product_wraps_are_rejected(tmp_path):
    # 2^31 nodes on each of three axes: an int64 product of the counts
    # wraps to 0, which would let an empty payload pass the length check.
    path = tmp_path / "u.nlsb"
    path.write_bytes(struct.pack("<4sII", MAGIC, FORMAT_VERSION, 3)
                     + np.full(3, 2 ** 31, dtype="<u4").tobytes()
                     + np.full(3, -1.0, dtype="<f8").tobytes()
                     + np.full(3, 1.0, dtype="<f8").tobytes()
                     + struct.pack("<dd", 0.3, 4.0))
    with pytest.raises(FormatError, match="truncated inside the payload"):
        read_field(path)
