"""Service-level counters and their Prometheus text rendering.

The batch runtime already reports per-run :class:`BatchMetrics`; the
service adds the *cross-request* view a scrape wants: request counts
and latencies by endpoint and status, the in-flight gauge, shed and
dead-letter counters, and the shared plan cache's cumulative hit/miss
statistics.  ``GET /metrics`` renders these in the Prometheus text
exposition format (version 0.0.4) — counters suffixed ``_total``,
``HELP``/``TYPE`` comment lines, deterministic (sorted) ordering so
two scrapes of an idle service are byte-identical.

Metric names::

    clip_service_requests_total{endpoint,status}   counter
    clip_service_request_seconds_bucket{endpoint,le}  histogram buckets
    clip_service_request_seconds_sum{endpoint}     counter (seconds)
    clip_service_request_seconds_count{endpoint}   counter
    clip_service_inflight_requests                 gauge
    clip_service_incremental_hits_total            counter
    clip_service_incremental_fallbacks_total       counter
    clip_service_requests_shed_total               counter
    clip_service_auth_failures_total               counter
    clip_service_documents_total                   counter
    clip_service_document_failures_total           counter
    clip_service_dead_letters_total                counter
    clip_service_mappings_registered               gauge
    clip_service_plan_cache_hits_total             counter
    clip_service_plan_cache_misses_total           counter
    clip_service_plan_cache_evictions_total        counter
    clip_service_plan_cache_size                   gauge
    clip_service_plan_compile_seconds_total        counter (seconds)
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from ..runtime.cache import CacheStats

#: Fixed histogram bucket bounds (seconds) for request latency — the
#: Prometheus defaults.  Fixed at import time so the exposition's
#: ``le`` label set is deterministic across processes and scrapes.
LATENCY_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class ServiceMetrics:
    """Thread-safe cumulative counters for one service instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests: Dict[Tuple[str, int], int] = {}
        self.latency_sum: Dict[str, float] = {}
        self.latency_count: Dict[str, int] = {}
        #: endpoint → per-bucket observation counts (last slot: +Inf).
        self.latency_buckets: Dict[str, list] = {}
        self.inflight = 0
        self.shed = 0
        self.auth_failures = 0
        self.documents = 0
        self.document_failures = 0
        self.dead_letters = 0
        self.incremental_hits = 0
        self.incremental_fallbacks = 0

    # -- accounting ----------------------------------------------------

    def begin_request(self) -> int:
        """Increment the in-flight gauge; returns the new depth (this
        request included), which the overload check compares against
        the configured ceiling."""
        with self._lock:
            self.inflight += 1
            return self.inflight

    def end_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Settle one request: decrement in-flight, bump the counters."""
        with self._lock:
            self.inflight -= 1
            key = (endpoint, status)
            self.requests[key] = self.requests.get(key, 0) + 1
            self.latency_sum[endpoint] = (
                self.latency_sum.get(endpoint, 0.0) + seconds
            )
            self.latency_count[endpoint] = (
                self.latency_count.get(endpoint, 0) + 1
            )
            buckets = self.latency_buckets.setdefault(
                endpoint, [0] * (len(LATENCY_BUCKETS) + 1)
            )
            for index, bound in enumerate(LATENCY_BUCKETS):
                if seconds <= bound:
                    buckets[index] += 1
                    break
            else:
                buckets[-1] += 1

    def count_incremental(self, *, fallback: bool) -> None:
        """One ``/transform/delta`` execution: scoped/unchanged runs
        count as hits, full recomputes as fallbacks."""
        with self._lock:
            if fallback:
                self.incremental_fallbacks += 1
            else:
                self.incremental_hits += 1

    def count_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def count_auth_failure(self) -> None:
        with self._lock:
            self.auth_failures += 1

    def count_documents(self, succeeded: int, failed: int) -> None:
        with self._lock:
            self.documents += succeeded
            self.document_failures += failed

    def count_dead_letters(self, n: int) -> None:
        with self._lock:
            self.dead_letters += n

    # -- rendering -----------------------------------------------------

    def render_prometheus(
        self,
        cache_stats: CacheStats,
        cache_size: int,
        mappings_registered: int,
    ) -> str:
        """The Prometheus text exposition of every counter.

        ``cache_stats``/``cache_size`` come from the service's shared
        :class:`~repro.runtime.cache.PlanCache` (cumulative over the
        process lifetime — exactly what a scrape wants), and
        ``mappings_registered`` from the registry.
        """
        with self._lock:
            requests = dict(self.requests)
            latency_sum = dict(self.latency_sum)
            latency_count = dict(self.latency_count)
            latency_buckets = {
                endpoint: list(buckets)
                for endpoint, buckets in self.latency_buckets.items()
            }
            inflight = self.inflight
            shed = self.shed
            auth_failures = self.auth_failures
            documents = self.documents
            document_failures = self.document_failures
            dead_letters = self.dead_letters
            incremental_hits = self.incremental_hits
            incremental_fallbacks = self.incremental_fallbacks
        lines = [
            "# HELP clip_service_requests_total HTTP requests served,"
            " by endpoint and status.",
            "# TYPE clip_service_requests_total counter",
        ]
        for (endpoint, status) in sorted(requests):
            lines.append(
                f'clip_service_requests_total{{endpoint="{endpoint}",'
                f'status="{status}"}} {requests[(endpoint, status)]}'
            )
        lines += [
            "# HELP clip_service_request_seconds Request handling"
            " latency, by endpoint.",
            "# TYPE clip_service_request_seconds histogram",
        ]
        for endpoint in sorted(latency_count):
            cumulative = 0
            for bound, observed in zip(
                LATENCY_BUCKETS, latency_buckets[endpoint]
            ):
                cumulative += observed
                lines.append(
                    f'clip_service_request_seconds_bucket{{'
                    f'endpoint="{endpoint}",le="{bound}"}} {cumulative}'
                )
            lines.append(
                f'clip_service_request_seconds_bucket{{'
                f'endpoint="{endpoint}",le="+Inf"}} {latency_count[endpoint]}'
            )
            lines.append(
                f'clip_service_request_seconds_sum{{endpoint="{endpoint}"}}'
                f" {latency_sum[endpoint]:.6f}"
            )
            lines.append(
                f'clip_service_request_seconds_count{{endpoint="{endpoint}"}}'
                f" {latency_count[endpoint]}"
            )
        gauges_and_counters = [
            ("clip_service_inflight_requests", "gauge",
             "Requests currently being handled.", inflight),
            ("clip_service_requests_shed_total", "counter",
             "Requests shed with 503 at the in-flight ceiling.", shed),
            ("clip_service_auth_failures_total", "counter",
             "Requests rejected by HMAC verification.", auth_failures),
            ("clip_service_documents_total", "counter",
             "Documents transformed successfully.", documents),
            ("clip_service_document_failures_total", "counter",
             "Documents that terminally failed.", document_failures),
            ("clip_service_dead_letters_total", "counter",
             "Failed inputs persisted to the dead-letter directory.",
             dead_letters),
            ("clip_service_incremental_hits_total", "counter",
             "Delta transforms served incrementally (scoped or"
             " unchanged).", incremental_hits),
            ("clip_service_incremental_fallbacks_total", "counter",
             "Delta transforms that fell back to full recompute.",
             incremental_fallbacks),
            ("clip_service_mappings_registered", "gauge",
             "Mappings currently registered.", mappings_registered),
            ("clip_service_plan_cache_hits_total", "counter",
             "Plan-cache hits (cumulative).", cache_stats.hits),
            ("clip_service_plan_cache_misses_total", "counter",
             "Plan-cache misses (cumulative).", cache_stats.misses),
            ("clip_service_plan_cache_evictions_total", "counter",
             "Plans evicted from the cache (cumulative).",
             cache_stats.evictions),
            ("clip_service_plan_cache_size", "gauge",
             "Compiled plans currently cached.", cache_size),
            ("clip_service_plan_compile_seconds_total", "counter",
             "Seconds spent compiling plans on cache misses.",
             cache_stats.compile_seconds),
        ]
        for name, kind, help_text, value in gauges_and_counters:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
            lines.append(f"{name} {rendered}")
        return "\n".join(lines) + "\n"
