"""DFT1 binary tensor format: roundtrips and malformed-input handling."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatevit import dft1
from dilatevit.errors import FormatError
from tests_common import traced_peak

UINT_OF = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_file_roundtrip_is_bit_exact_and_damage_is_a_format_error(dtype, shape, seed, data):
    # Arbitrary bit patterns: NaN payloads, infinities, subnormals and -0.0 included.
    uint = UINT_OF[np.dtype(dtype)]
    bits = np.random.default_rng(seed).integers(0, np.iinfo(uint).max, size=shape, dtype=uint, endpoint=True)
    arr = bits.view(dtype)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.dft1")
        dft1.write_tensor(path, arr)
        back = dft1.read_tensor(path)
        assert back.dtype == dtype and back.shape == shape
        assert np.array_equal(back.view(uint), bits)
        assert back.flags.writeable and back.flags.c_contiguous and back.flags.aligned
        assert back.dtype.isnative
        assert dft1.read_header(path) == (back.dtype, shape)
        with open(path, "rb") as fh:
            blob = fh.read()
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        extra = data.draw(st.binary(min_size=1, max_size=16), label="extra")
        for damaged in (blob[:cut], blob + extra):
            with open(path, "wb") as fh:
                fh.write(damaged)
            with pytest.raises(FormatError) as from_payload:
                dft1.read_tensor(path)
            with pytest.raises(FormatError) as from_header:
                dft1.read_header(path)
            assert str(from_header.value) == str(from_payload.value)


def test_header_reader_reads_no_payload(tmp_path):
    path = tmp_path / "big.dft1"
    dft1.write_tensor(path, np.zeros((512, 512), dtype=np.float32))
    header, peak = traced_peak(lambda: dft1.read_header(path))
    assert header == (np.dtype(np.float32), (512, 512))
    assert peak < 64 * 1024, f"reading a 1 MB file's header peaked at {peak} bytes"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reads_through_a_pipe(dtype):
    arr = np.arange(24, dtype=dtype).reshape(2, 3, 4)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.dft1")
        dft1.write_tensor(path, arr)
        with open(path, "rb") as fh:
            blob = fh.read()
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as reader:
        with os.fdopen(write_end, "wb") as writer:
            writer.write(blob)  # far below the pipe's buffer, so this does not block
        back = dft1.read_tensor(f"/dev/fd/{reader.fileno()}")
    assert np.array_equal(back, arr) and back.flags.writeable and back.flags.aligned
