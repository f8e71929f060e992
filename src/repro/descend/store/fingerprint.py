"""Schema fingerprint of the persistent artifact store.

Persisted artifacts are pickles of compiler data structures (ASTs,
:class:`~repro.descend.typeck.checker.CheckedProgram`, CUDA modules,
diagnostics).  They are only valid as long as the compiler that produced
them is byte-identical to the compiler that reads them: a changed typeck
rule must not resurrect stale diagnostics, a changed code generator must
not resurrect stale CUDA.

Rather than asking developers to remember to bump a version constant, the
store's schema fingerprint *is* a hash of the compiler itself: every
``.py`` file of :mod:`repro.descend` (the full pass pipeline — frontend,
typeck, lowerings — and this store package) plus the pickle wire format
and the Python ``major.minor`` version (pickles of the same dataclasses
are not guaranteed stable across interpreter versions).  Any compiler
change therefore invalidates the store wholesale, which is always safe:
the store is a cache, and a cold compile rebuilds it.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
from functools import lru_cache
from pathlib import Path

#: Bumped when the *layout* of the store itself changes (index format,
#: object naming), independently of compiler changes.
STORE_FORMAT = 2


@lru_cache(maxsize=1)
def pipeline_fingerprint() -> str:
    """Hex digest identifying this exact compiler build and wire format."""
    hasher = hashlib.sha256()
    hasher.update(f"store-format:{STORE_FORMAT}\n".encode())
    hasher.update(f"python:{sys.version_info[0]}.{sys.version_info[1]}\n".encode())
    hasher.update(f"pickle:{pickle.HIGHEST_PROTOCOL}\n".encode())
    package_root = Path(__file__).resolve().parent.parent  # repro/descend
    for path in sorted(package_root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        hasher.update(str(path.relative_to(package_root)).encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()
