"""Encoding application data to wire bodies.

Follows mpi4py's split: generic Python objects travel pickled; callers
moving raw sized payloads (benchmarks) pass a :class:`Blob`/:class:`ChunkList`
directly and get one back, paying only byte *accounting*.  The inverse is
the receive's completion step, :meth:`~repro.core.request.RecvRequest.deliver`.
"""

from __future__ import annotations

import pickle
from typing import Any, Tuple

from ..util.blobs import Blob, ChunkList, RealBlob
from .constants import FLAG_PICKLED


def encode_payload(data: Any) -> Tuple[ChunkList, int]:
    """Returns (body, extra_flags) for an application value."""
    if isinstance(data, ChunkList):
        return data, 0
    if isinstance(data, Blob):
        return ChunkList([data]), 0
    if isinstance(data, (bytes, bytearray, memoryview)):
        return ChunkList([RealBlob(bytes(data))]), 0
    return ChunkList([RealBlob(pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL))]), FLAG_PICKLED

