"""DFT1 binary tensor format: roundtrips and malformed-input handling."""

import numpy as np
import pytest

from dilatevit import dft1
from dilatevit.errors import FormatError


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_roundtrip(tmp_path, dtype):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5)).astype(dtype)
    path = tmp_path / "t.dft1"
    dft1.write_tensor(path, arr)
    back = dft1.read_tensor(path)
    assert back.dtype == dtype
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_scalar_rank_zero_not_allowed_but_rank_one_is(tmp_path):
    path = tmp_path / "v.dft1"
    dft1.write_tensor(path, np.array([1.5, 2.5], dtype=np.float32))
    assert np.array_equal(dft1.read_tensor(path), [1.5, 2.5])


def test_header_layout(tmp_path):
    path = tmp_path / "h.dft1"
    dft1.write_tensor(path, np.zeros((2, 3), dtype=np.float64))
    blob = path.read_bytes()
    assert blob[:4] == b"DFT1"
    assert blob[4] == 1  # f64
    assert blob[5] == 2  # rank
    assert int.from_bytes(blob[6:14], "little") == 2
    assert int.from_bytes(blob[14:22], "little") == 3
    assert len(blob) == 22 + 6 * 8


def test_rejects_wrong_magic():
    with pytest.raises(FormatError, match="offset 0"):
        dft1.decode(b"NOPE" + bytes(64))


def test_rejects_unknown_dtype_code():
    blob = b"DFT1" + bytes([9, 1]) + (1).to_bytes(8, "little") + bytes(4)
    with pytest.raises(FormatError, match="offset 4"):
        dft1.decode(blob)


def test_rejects_truncated_payload_with_offset(tmp_path):
    path = tmp_path / "t.dft1"
    dft1.write_tensor(path, np.ones((4, 4), dtype=np.float32))
    blob = path.read_bytes()[:-7]
    with pytest.raises(FormatError, match=f"offset {len(blob)}"):
        dft1.decode(blob)


def test_rejects_truncated_extent_table():
    blob = b"DFT1" + bytes([0, 3]) + (2).to_bytes(8, "little")
    with pytest.raises(FormatError, match="truncated extent"):
        dft1.decode(blob)


def test_rejects_zero_extent():
    blob = (
        b"DFT1"
        + bytes([0, 2])
        + (0).to_bytes(8, "little")
        + (3).to_bytes(8, "little")
    )
    with pytest.raises(FormatError, match="extent 0 is 0"):
        dft1.decode(blob)


def test_rejects_trailing_bytes_at_the_end_of_the_payload(tmp_path):
    path = tmp_path / "t.dft1"
    dft1.write_tensor(path, np.ones((2, 2), dtype=np.float32))
    end = len(path.read_bytes())
    with pytest.raises(FormatError, match=f"trailing bytes.*offset {end}"):
        dft1.decode(path.read_bytes() + b"garbage")
