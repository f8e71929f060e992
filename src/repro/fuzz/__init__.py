"""Seed-driven property-based differential fuzzing for the Descend compiler.

Three layers, mirroring the tentpole design:

* :mod:`repro.fuzz.generate` — a grammar-directed random program builder
  over the AST builder API.  Specs (:class:`~repro.fuzz.generate.KernelSpec`)
  are plain frozen data, so generation is deterministic per seed and the
  shrinker can manipulate programs structurally.  A mutation mode perturbs a
  well-typed spec (drop a sync, widen a borrow, swap a select) into likely
  ill-typed variants.

* :mod:`repro.fuzz.harness` — the differential oracle.  For every program it
  checks the cross-cutting properties: deterministic and cache-stable typeck
  verdicts, byte-identical diagnostics cold vs. cached, print→parse
  round-tripping, and — for well-typed programs — identical buffers, cycles
  and empty race reports across the reference and vectorized engines and
  across raw vs. optimized plans (well-typed ⇒ race-free ∧ engine parity).

* :mod:`repro.fuzz.shrink` / :mod:`repro.fuzz.corpus` — greedy spec-level
  minimization of failing cases, and persistence of minimized repros as
  ``fuzz-repro`` artifacts in the content-addressed store (replayable with
  ``descendc fuzz --replay``).

The one-call entry point is :func:`run_fuzz` (what ``descendc fuzz`` runs).
"""

from repro.fuzz.generate import KernelSpec, MUTATIONS, build_program, random_spec
from repro.fuzz.harness import CaseResult, check_source, check_spec
from repro.fuzz.runner import run_fuzz, run_replay
from repro.fuzz.shrink import shrink_spec

__all__ = [
    "KernelSpec",
    "MUTATIONS",
    "build_program",
    "random_spec",
    "CaseResult",
    "check_source",
    "check_spec",
    "shrink_spec",
    "run_fuzz",
    "run_replay",
]
