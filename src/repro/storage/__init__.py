"""Persistence substrate: hash store, blob store, R-tree, WAL."""

from repro.storage.kvstore import BlobStore, HashStore
from repro.storage.rtree import RTree
from repro.storage.wal import InvocationRecord, WriteAheadLog

__all__ = ["BlobStore", "HashStore", "RTree", "InvocationRecord", "WriteAheadLog"]
