"""Flat binary container for named parameter arrays.

Format (little-endian throughout):

    magic   8 bytes  b"TSTORE01"  (name + version)
    count   uint32   number of records
    record, repeated `count` times:
        name_len  uint32
        name      UTF-8 bytes
        dtype     uint8   0 = float32, 1 = float64
        ndim      uint8
        dims      uint64 * ndim
        data      raw array bytes, C order

The format is stable across runs; loading restores bit-identical values.
`load_arrays` reads every record; `load_shapes` reads only the record
headers and seeks past the data, and refuses the same files.
"""

from __future__ import annotations

import os
import struct
from typing import Dict, Tuple

import numpy as np

MAGIC = b"TSTORE01"
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class FormatError(ValueError):
    """Raised when a parameter file is malformed or has an unknown version."""


def save_arrays(path, arrays: Dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr)   # tobytes() writes C order; a 0-d shape stays
            if arr.dtype not in _DTYPE_CODES:
                raise FormatError(f"unsupported dtype {arr.dtype} for {name!r}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def _records(fh):
    """Yields (name, dtype, shape, data bytes) of each record of the open
    file `fh`, which is left at the record's data for the caller to read or
    skip. A record whose data would end past the end of the file is
    truncated."""
    size = os.fstat(fh.fileno()).st_size
    magic = fh.read(8)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (count,) = struct.unpack("<I", fh.read(4))
    for _ in range(count):
        (name_len,) = struct.unpack("<I", fh.read(4))
        name = fh.read(name_len).decode("utf-8")
        code, ndim = struct.unpack("<BB", fh.read(2))
        if code not in _CODE_DTYPES:
            raise FormatError(f"unknown dtype code {code} for {name!r}")
        shape = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
        dtype = _CODE_DTYPES[code]
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if fh.tell() + nbytes > size:
            raise FormatError(f"truncated data for {name!r}")
        yield name, dtype, shape, nbytes


def load_arrays(path) -> Dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        arrays: Dict[str, np.ndarray] = {}
        for name, dtype, shape, nbytes in _records(fh):
            # read straight into the array: no bytes object to copy from
            arr = arrays[name] = np.empty(shape, dtype=dtype)
            if fh.readinto(arr) != nbytes:
                raise FormatError(f"truncated data for {name!r}")
        return arrays


def load_shapes(path) -> Dict[str, Tuple[int, ...]]:
    """The shape of each record in `path`, read from the record headers: the
    data is skipped by a seek. Refuses every file that `load_arrays` refuses."""
    with open(path, "rb") as fh:
        shapes: Dict[str, Tuple[int, ...]] = {}
        for name, _, shape, nbytes in _records(fh):
            shapes[name] = shape
            fh.seek(nbytes, os.SEEK_CUR)
        return shapes
