"""repro.engine — batched, cached, multi-backend homomorphism counting.

The subsystem turns ad-hoc counting calls into a compile-then-execute
pipeline:

* :mod:`repro.engine.plans` — compile a pattern once into a
  :class:`CountPlan` (matrix closed form, treewidth-DP instruction tape,
  or brute force), chosen by a treewidth-aware cost model, and a
  conjunctive query into an :class:`AnswerPlan` over its
  counting-minimal core;
* :mod:`repro.engine.cache` — LRU plan/count caches behind canonical-form
  keys, with hit/miss statistics;
* :mod:`repro.engine.batch` — pattern-set × target-set evaluation with
  plan reuse and an optional ``multiprocessing`` pool;
* :mod:`repro.engine.engine` — the :class:`HomEngine` facade that
  ``repro.homs.counting`` delegates to.
"""

from repro.engine.cache import CacheStats, EngineCache, LRUCache
from repro.engine.engine import HomEngine, default_engine, set_default_engine
from repro.engine.plans import (
    AnswerPlan,
    BrutePlan,
    ConstantPlan,
    CountPlan,
    DPPlan,
    MatrixPlan,
    compile_answer_plan,
    compile_dp_plan,
    compile_plan,
    select_backend,
)

__all__ = [
    "AnswerPlan",
    "BrutePlan",
    "CacheStats",
    "ConstantPlan",
    "CountPlan",
    "DPPlan",
    "EngineCache",
    "HomEngine",
    "LRUCache",
    "MatrixPlan",
    "compile_answer_plan",
    "compile_dp_plan",
    "compile_plan",
    "default_engine",
    "select_backend",
    "set_default_engine",
]
