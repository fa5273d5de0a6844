"""DFT1 binary tensor files.

Layout, all little-endian:

    bytes 0..3   magic 0x44 0x46 0x54 0x31 ("DFT1")
    byte  4      dtype code: 0 = f32, 1 = f64
    byte  5      rank (number of extents)
    next  8*rank u64 extents
    rest         raw row-major data

Readers reject wrong magic, unknown dtype codes, zero extents, truncated
payloads and trailing bytes, reporting the byte offset of the failure.
``read_header`` makes the same checks from a file's header and size alone.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import FormatError, ShapeError

MAGIC = b"DFT1"
_DTYPE_CODES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}  # stored little-endian
_CODES_BY_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_MAX_HEADER = 6 + 8 * 255  # magic, dtype code, rank and the largest extent table
_LEAD = 2  # read_tensor's buffer offset: puts the payload (at 6 + 8*rank) 8-byte aligned


def write_tensor(path: str | os.PathLike, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _CODES_BY_DTYPE:
        raise ShapeError(f"DFT1 stores f32/f64 tensors only, got dtype {arr.dtype}")
    if arr.size == 0:
        raise ShapeError(f"DFT1 extents must all be >= 1, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([_CODES_BY_DTYPE[arr.dtype], arr.ndim]))
        for extent in arr.shape:
            fh.write(int(extent).to_bytes(8, "little"))
        fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def _open(path: str | os.PathLike):
    """``path`` opened for binary reading; a missing or unreadable file is a FormatError."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read {os.fspath(path)}: {exc.strerror}") from exc


def read_tensor(path: str | os.PathLike) -> np.ndarray:
    """The tensor in one file, as a writable array over the one buffer the file is read into."""
    with _open(path) as fh:
        blob = bytearray(_LEAD + os.fstat(fh.fileno()).st_size)
        del blob[_LEAD + fh.readinto(memoryview(blob)[_LEAD:]) :]  # a file that shrank is truncated
        blob += fh.read()  # bytes fstat did not count: a pipe's, or a file's that grew
    return decode(memoryview(blob)[_LEAD:])


def read_header(path: str | os.PathLike) -> tuple[np.dtype, tuple[int, ...]]:
    """The dtype and shape of a regular file, its size checked against them; no payload is read."""
    with _open(path) as fh:
        head = fh.read(_MAX_HEADER)
        size = max(len(head), os.fstat(fh.fileno()).st_size)
    dtype, shape, _ = _parse_header(head, size)
    return dtype, shape


def decode(blob: bytes | bytearray | memoryview) -> np.ndarray:
    """Parse DFT1 bytes into a view of ``blob``, or an aligned copy when the payload needs one."""
    dtype, shape, header_end = _parse_header(blob, len(blob))
    data = np.ndarray(shape, dtype.newbyteorder("<"), buffer=blob, offset=header_end)  # a view: no payload copy
    return np.require(data.astype(dtype, copy=False), requirements=("C", "A"))


def _parse_header(head, size: int) -> tuple[np.dtype, tuple[int, ...], int]:
    """Check the header at the start of ``head`` and a total size of ``size`` bytes:
    (native dtype, shape, payload offset)."""
    if len(head) < 4 or head[:4] != MAGIC:
        raise FormatError(f"bad magic {bytes(head[:4])!r}, expected {MAGIC!r}", offset=0)
    if len(head) < 6:
        raise FormatError("truncated header", offset=len(head))
    code, rank = head[4], head[5]
    if code not in _DTYPE_CODES:
        raise FormatError(f"unknown dtype code {code}", offset=4)
    header_end = 6 + 8 * rank
    if len(head) < header_end:
        raise FormatError(
            f"truncated extent table: need {header_end} bytes, have {len(head)}",
            offset=len(head),
        )
    shape = tuple(
        int.from_bytes(head[6 + 8 * i : 14 + 8 * i], "little") for i in range(rank)
    )
    for i, extent in enumerate(shape):
        if extent < 1:
            raise FormatError(f"extent {i} is {extent}, must be >= 1", offset=6 + 8 * i)
    dtype = _DTYPE_CODES[code]
    count = 1
    for extent in shape:
        count *= extent
    need = header_end + count * dtype.itemsize
    if size < need:
        raise FormatError(f"truncated payload: need {need} bytes, have {size}", offset=size)
    if size > need:
        raise FormatError(f"{size - need} trailing bytes after the payload", offset=need)
    return dtype, shape, header_end
