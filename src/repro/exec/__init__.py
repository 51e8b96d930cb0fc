"""The compiled execution tier (ROADMAP item: warm-path performance).

Two layers sit between the Fast front end and the STTR interpreter:

* :mod:`repro.exec.compiled` — code generation.  An
  :class:`~repro.transducers.sttr.STTR` is turned once into Python
  source and compiled: one guard classifier per input constructor, a
  lookahead memo filled in a single post-order pass, integer states
  with flat per-node result slots, and one emitter per rule.
  ``Transducer.apply`` runs the generated form; the interpreter in
  :mod:`repro.transducers.run` stays the reference oracle
  (property-tested equivalent) and runs what the generator cannot
  lower.

* :mod:`repro.exec.cache` — the persistent artifact cache.  A whole
  compiled program environment (:mod:`repro.exec.artifact`) is stored
  content-addressed (SHA-256 of the source + a version salt) in an
  in-process LRU with an on-disk JSON layer behind it, so two
  consecutive jobs for the same program never parse twice.

Both layers are observable (``exec.*`` metrics, DESIGN.md §8);
``REPRO_CACHE=off`` disables the artifact cache (see
:mod:`repro.exec.config`).
"""

from .artifact import CompiledArtifact, build_artifact
from .cache import ArtifactCache, DEFAULT_CACHE, cached_artifact
from .compiled import CompiledSTTR, run_compiled_checked

__all__ = [
    "ArtifactCache",
    "CompiledArtifact",
    "CompiledSTTR",
    "DEFAULT_CACHE",
    "build_artifact",
    "cached_artifact",
    "run_compiled_checked",
]
