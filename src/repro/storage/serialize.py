"""Compact binary serialization for lineage records.

The encoder (§VI-B) must persist *sets of cell coordinates* — which "can
easily be larger than the original data arrays" — so the wire format matters.
We bit-pack each coordinate into a single int64 (ravel order against the
array shape, as the paper does for small arrays) and hand integer sets to
the codec subsystem in :mod:`repro.storage.codecs`, which picks the smallest
of four tagged wire formats per value (delta/var-width, run-length
intervals, presence bitmaps, raw fixed-width) and offers decode-free
membership probes over the encoded bytes.

:func:`encode_int_array` / :func:`decode_int_array` / :func:`int_array_nbytes`
are kept as the historical entry points; they now dispatch on the per-value
codec tag byte.  The legacy delta format's magic byte ``0x49`` doubles as
that codec's tag, so values written before the codec subsystem existed
decode unchanged.  Inputs whose span exceeds the int64 range — which used to
make the delta residuals wrap negative and raise mid-workflow — now fall
back to the raw codec instead of failing.

File-level persistence does not use this module's framing: whole stores
flush into the checksummed, mmap-able segment container of
:mod:`repro.storage.segment` (codec-tagged values ride inside its byte
sections verbatim — see ``docs/storage_format.md``).

Everything is vectorised with numpy; nothing here loops over cells.
"""

from __future__ import annotations

import numpy as np

from repro.storage.codecs import (
    cells_nbytes,
    decode_cells,
    decode_uvarint,
    encode_cells,
    encode_uvarint,
)

__all__ = [
    "encode_uvarint",
    "decode_uvarint",
    "encode_int_array",
    "decode_int_array",
    "int_array_nbytes",
]


def encode_int_array(arr: np.ndarray) -> bytes:
    """Serialize an int64 array with the smallest eligible codec."""
    return encode_cells(arr)


def decode_int_array(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_int_array`; returns ``(array, next_offset)``."""
    return decode_cells(buf, offset)


def int_array_nbytes(arr: np.ndarray) -> int:
    """Serialized size without materialising the bytes (used by cost model)."""
    return cells_nbytes(arr)
