"""The CUDA C++ translation of a Descend program, as a stored artifact.

:class:`CudaModule` lives outside :mod:`repro.descend.codegen` so that a
warm compile, which unpickles the module from the artifact store, does not
import the code generator.  :mod:`repro.descend.codegen` re-exports it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict

_HEADER = """\
// Generated by the Descend reproduction compiler (repro.descend.codegen).
// Kernels were derived from Descend's holistic programming model; memory and
// execution-resource annotations have been checked statically and erased.
#include <cuda_runtime.h>
#include <algorithm>
"""


@dataclass
class CudaModule:
    """The CUDA C++ translation of a Descend program."""

    kernels: Dict[str, str] = field(default_factory=dict)
    host_functions: Dict[str, str] = field(default_factory=dict)
    header: str = _HEADER

    def kernel(self, name: str) -> str:
        return self.kernels[name]

    def host(self, name: str) -> str:
        return self.host_functions[name]

    def full_source(self) -> str:
        pieces = [self.header]
        pieces.extend(self.kernels.values())
        pieces.extend(self.host_functions.values())
        return "\n".join(pieces)

    def fingerprint(self) -> str:
        """Content digest of the emitted module (artifact-identity checks)."""
        return hashlib.sha256(self.full_source().encode("utf-8")).hexdigest()[:16]
