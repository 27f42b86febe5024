"""The compiled-plan cache: one compile per ``(mapping, ExecSpec)``.

A serving loop retrieves the plan for every document it applies; the
cache turns all but the first retrieval into a dictionary hit.  Keys
are the structural fingerprints of :func:`repro.runtime.plan.fingerprint`,
so the cache sees through object identity — the same mapping document
loaded twice compiles once — while any structural edit compiles fresh.
Composed mappings key on their :func:`repro.algebra.compose_fingerprint`.

The cache is thread-safe (one lock around the table and counters) and
bounded: least-recently-used plans are evicted beyond ``maxsize``.
:class:`CacheStats` feeds the batch metrics report — hits, misses,
evictions, and the seconds spent compiling on misses.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Union

from ..core.mapping import ClipMapping
from .plan import CompiledPlan, Composition, compile_plan, fingerprint


@dataclass
class CacheStats:
    """Cumulative counters for one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compile_seconds: float = 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits, self.misses, self.evictions, self.compile_seconds
        )

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "compile_seconds": self.compile_seconds,
        }


class PlanCache:
    """An LRU cache of :class:`CompiledPlan` keyed by fingerprint."""

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("maxsize must be a positive integer")
        self.maxsize = maxsize
        self._plans: OrderedDict[str, CompiledPlan] = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()

    @property
    def stats(self) -> CacheStats:
        """A point-in-time copy of the counters."""
        with self._lock:
            return self._stats.snapshot()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, fp: str) -> bool:
        with self._lock:
            return fp in self._plans

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def put(self, plan: CompiledPlan) -> None:
        """Seed the cache with an externally compiled plan (e.g. a
        pipeline reusing its transformers' compiled tgds)."""
        with self._lock:
            self._stats.compile_seconds += plan.compile_seconds
            self._plans[plan.fingerprint] = plan
            self._plans.move_to_end(plan.fingerprint)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self._stats.evictions += 1

    def peek(self, fp: str) -> Optional[CompiledPlan]:
        """The cached plan for a fingerprint without touching the
        hit/miss counters or the LRU order.

        Observability callers (the service's mapping-detail endpoint,
        diagnostics) use this so that *inspecting* the cache never
        perturbs the statistics that serving traffic reports.
        """
        with self._lock:
            return self._plans.get(fp)

    def lookup(self, fp: str) -> Optional[CompiledPlan]:
        """The cached plan for a fingerprint, or ``None`` (counts as a
        hit or miss)."""
        with self._lock:
            plan = self._plans.get(fp)
            if plan is None:
                self._stats.misses += 1
                return None
            self._plans.move_to_end(fp)
            self._stats.hits += 1
            return plan

    def get_or_compile(
        self,
        mapping: Union[ClipMapping, Composition],
        engine: str = "tgd",
        *,
        require_valid: bool = True,
        fp: Optional[str] = None,
        optimize: Optional[bool] = None,
        exec_mode: Optional[str] = None,
    ) -> CompiledPlan:
        """The plan for ``(mapping, engine, optimize, exec_mode)``,
        compiling on first use.

        Callers applying one mapping to many documents should compute
        the key once via :func:`repro.runtime.plan.fingerprint` and
        pass it in: the per-document retrieval is then a pure
        dictionary hit.  The fingerprint covers the resolved
        :class:`~repro.runtime.plan.ExecSpec`, so optimized, naive, and
        codegen plans for the same mapping coexist without collisions.
        A :class:`~repro.runtime.plan.Composition` must come with its
        ``fp``.
        """
        if fp is None:
            fp = fingerprint(mapping, engine, optimize=optimize, exec_mode=exec_mode)
        plan = self.lookup(fp)
        if plan is not None:
            return plan
        # Compile outside the lock: deterministic, so a concurrent
        # duplicate compile is wasted work but not an error.
        plan = compile_plan(
            mapping, engine, require_valid=require_valid, fp=fp,
            optimize=optimize, exec_mode=exec_mode,
        )
        self.put(plan)
        return plan


#: The process-wide default cache: independent runners and CLI calls
#: within one process share compiled plans.
_DEFAULT_CACHE = PlanCache()


def default_cache() -> PlanCache:
    """The process-wide default :class:`PlanCache`."""
    return _DEFAULT_CACHE


def get_plan(
    mapping: ClipMapping,
    engine: str = "tgd",
    *,
    require_valid: bool = True,
) -> CompiledPlan:
    """Retrieve (compiling at most once) a plan from the default cache."""
    return _DEFAULT_CACHE.get_or_compile(
        mapping, engine, require_valid=require_valid
    )
