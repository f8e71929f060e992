"""Persistent content-addressed artifact store for the compiler driver.

PR 3's :class:`~repro.descend.driver.CompileSession` made repeated compiles
~1000× faster *within* a process; this package makes the cache survive the
process.  A :class:`~repro.descend.store.cas.ArtifactStore` is attached to a
session (``session.attach_store(store)``); the driver then reads through it
(memory → store → compute) and writes every freshly computed artifact back,
so the next CLI invocation, benchsuite shard, or CI job starts warm.

See :mod:`repro.descend.store.cas` for the on-disk format and concurrency
story, and :mod:`repro.descend.store.fingerprint` for the self-invalidating
schema versioning.
"""

from repro.descend.store.backend import (
    HttpBackend,
    LocalDirBackend,
    StoreBackend,
    is_store_url,
)
from repro.descend.store.cas import (
    DEFAULT_MAX_BYTES,
    PICKLE_PROTOCOL,
    ArtifactStore,
)
from repro.descend.store.fingerprint import STORE_FORMAT, pipeline_fingerprint

__all__ = [
    "ArtifactStore",
    "StoreBackend",
    "LocalDirBackend",
    "HttpBackend",
    "is_store_url",
    "DEFAULT_MAX_BYTES",
    "PICKLE_PROTOCOL",
    "STORE_FORMAT",
    "pipeline_fingerprint",
]
