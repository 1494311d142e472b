"""Small shared utilities (payload blobs, chunk lists, range sets, packet tracing).

Nothing from :mod:`~repro.util.trace` is re-exported: a run that traces
no packets should not load it.
"""

from .blobs import Blob, ChunkList, RealBlob, SyntheticBlob, as_blob

__all__ = [
    "Blob",
    "ChunkList",
    "RealBlob",
    "SyntheticBlob",
    "as_blob",
]
