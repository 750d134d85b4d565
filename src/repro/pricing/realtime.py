"""Real-time pricing: one concurrent quote session over a fixed YET.

This is the scenario the paper's abstract sells: with the analysis at
seconds per million trials, an underwriter can tweak layer terms and
re-quote live.  :class:`QuoteService` is that session, built on the
plan layer.  It accepts one candidate layer or many at once
(:meth:`QuoteService.quote`, :meth:`QuoteService.quote_many`,
:meth:`QuoteService.quote_async`), schedules quote tasks on a shared
worker pool, and dedupes work across in-flight quotes through a
plan-level :class:`~repro.plan.cache.PlanResultCache`:

- lookup tables are shared via the process-wide
  :class:`~repro.lookup.factory.LookupCache` (as everywhere);
- the *combined per-occurrence loss vector* — the expensive
  gather + financial-terms prefix of Algorithm 1, which depends on
  the ELT set but **not** on the candidate's layer terms — is
  computed once per (ELT set, YET, secondary stream) and reused by
  every candidate over that set, including marginal re-quotes
  against the book's already-computed segments;
- finished per-candidate year-loss vectors are cached too, so
  re-quoting an unchanged structure is a pure cache hit.

Quotes are **bit-for-bit identical** to a sequential-engine run of the
same single-layer candidate portfolio: the cached vector is the one
kernel's combine step, decomposition-invariant (tasks are keyed by
global occurrence index), and the finish is exactly the kernel's
layer-terms pass.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.kernels import (
    LOOKUP_DIRECT,
    build_layer_tables,
    combined_occurrence_losses,
    finish_layer_losses,
)
from repro.core.secondary import layer_stream_key, resolve_secondary_seed
from repro.data.elt import EventLossTable
from repro.data.layer import Layer, LayerTerms, Portfolio
from repro.data.yet import YearEventTable
from repro.metrics.tvar import tail_value_at_risk
from repro.plan.cache import (
    PlanResultCache,
    elt_set_fingerprint,
    yet_fingerprint,
)
from repro.plan.planner import EngineCapabilities, Planner
from repro.plan.scheduler import Scheduler
from repro.pricing.pricer import LayerQuote, PricingAssumptions, price_layer
from repro.store.keys import secondary_fingerprint
from repro.utils.bufpool import ScratchBufferPool
from repro.utils.parallel import available_cpu_count
from repro.utils.retry import Deadline


@dataclass
class QuoteRecord:
    """One quote: the price plus how long it took (and where it came from)."""

    quote: LayerQuote
    analysis_seconds: float
    engine: str
    marginal_tvar: float | None = None
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class QuoteRequest:
    """One candidate layer to quote: covered ELTs plus contract terms."""

    elt_ids: Tuple[int, ...]
    terms: LayerTerms
    layer_id: int = 9999
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "elt_ids", tuple(int(e) for e in self.elt_ids)
        )


class QuoteService:
    """Concurrent quote service: many candidate layers, shared work.

    Parameters
    ----------
    yet:
        The pre-simulated trial database (shared by all quotes).
    elts:
        The ELT pool candidate layers may reference.
    catalog_size:
        Event-id address space.
    book:
        Optional existing portfolio for marginal-impact quoting.
    assumptions:
        Pricing loadings (:class:`~repro.pricing.pricer.PricingAssumptions`
        defaults when omitted).
    max_workers:
        Width of the quote worker pool *and* of the plan used to compute
        base vectors (defaults to the machine's usable CPU count).
        Results are bit-for-bit identical for any value.
    dtype:
        Working precision of the analysis (the default matches the
        engines').
    secondary, secondary_seed:
        Optional secondary uncertainty; draws are keyed by the candidate
        ``layer_id``'s stream and the global occurrence index, exactly
        like the engines, so seeded service quotes equal seeded engine
        runs.  (Candidates with different ``layer_id`` draw independent
        streams and therefore cannot share a base vector.)
    cache_size:
        LRU capacity of the base-vector cache (entries are one word per
        YET occurrence each); the finished-loss cache holds
        ``4 * cache_size`` vectors of one float64 per trial.  Both
        caches are hard-bounded — eviction counts appear in
        :meth:`cache_stats`.
    store:
        Optional :class:`~repro.store.base.ResultStore` backing both
        caches (e.g. :func:`repro.store.default_store`).  Base combined
        occurrence-loss vectors and finished year-loss vectors are then
        content-addressed and durable: they survive process restarts,
        are shared by every worker process pointing at the same cache
        directory, and LRU eviction costs a re-read instead of a
        re-compute.
    """

    def __init__(
        self,
        yet: YearEventTable,
        elts: Sequence[EventLossTable],
        catalog_size: int,
        book: Portfolio | None = None,
        assumptions: PricingAssumptions | None = None,
        max_workers: int | None = None,
        dtype: np.dtype | type = np.float64,
        secondary=None,
        secondary_seed=None,
        cache_size: int = 16,
        store=None,
    ) -> None:
        self.yet = yet
        self.elts = {elt.elt_id: elt for elt in elts}
        if len(self.elts) != len(elts):
            raise ValueError("duplicate ELT ids in pool")
        self.catalog_size = int(catalog_size)
        self.assumptions = assumptions or PricingAssumptions()
        self.book = book
        self.history: List[QuoteRecord] = []
        if max_workers is None:
            self.max_workers = available_cpu_count()
        else:
            self.max_workers = int(max_workers)
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.dtype = np.dtype(dtype)
        self.secondary = secondary
        self._secondary_base_seed = (
            resolve_secondary_seed(secondary_seed)
            if secondary is not None
            else 0
        )
        self._yet_fp = yet_fingerprint(yet)
        self.store = store
        self._base_cache = PlanResultCache(
            maxsize=cache_size, store=store, namespace="quote-base"
        )
        self._loss_cache = PlanResultCache(
            maxsize=4 * cache_size, store=store, namespace="quote-losses"
        )
        self._scheduler = Scheduler(max_workers=self.max_workers)
        self._planner = Planner()
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._book_tvar: float | None = None
        self._book_losses: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _pool_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="quote-service",
                )
            return self._executor

    def close(self) -> None:
        """Shut the quote worker pool down (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "QuoteService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _resolve_elts(self, elt_ids: Sequence[int]) -> List[EventLossTable]:
        for elt_id in elt_ids:
            if elt_id not in self.elts:
                raise KeyError(f"unknown ELT id {elt_id}")
        return [self.elts[int(e)] for e in elt_ids]

    @property
    def mean_quote_seconds(self) -> float:
        """Average quote latency over the session (real-time-ness KPI)."""
        if not self.history:
            return 0.0
        return sum(r.analysis_seconds for r in self.history) / len(self.history)

    def _stream_key(self, layer_id: int) -> int:
        if self.secondary is None:
            return 0
        return layer_stream_key(self._secondary_base_seed, int(layer_id))

    def _base_key(self, elts: Sequence[EventLossTable], stream_key: int):
        stream = None
        if self.secondary is not None:
            stream = (
                stream_key,
                secondary_fingerprint(
                    self.secondary, self._secondary_base_seed
                ),
            )
        return (
            "base",
            elt_set_fingerprint(elts),
            self._yet_fp,
            self.dtype.str,
            LOOKUP_DIRECT,
            stream,
        )

    # ------------------------------------------------------------------
    # The shared base vector (steps 1–2 of Algorithm 1)
    # ------------------------------------------------------------------
    def _base_vector(
        self,
        elts: Sequence[EventLossTable],
        stream_key: int,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        """Combined per-occurrence losses for an ELT set (cached).

        Computed as a plan: the planner lays the YET onto
        ``max_workers`` event-balanced lanes of autotuned batch tasks,
        and the scheduler runs the lanes concurrently, each task filling
        its global occurrence range of the shared vector.  Concurrent
        quotes over the same ELT set join the in-flight computation
        instead of repeating it.
        """
        key = self._base_key(elts, stream_key)
        return self._base_cache.get_or_compute(
            key,
            lambda: self._compute_base(list(elts), stream_key),
            deadline=deadline,
        )

    def _compute_base(
        self, elts: List[EventLossTable], stream_key: int
    ) -> np.ndarray:
        stacked = build_layer_tables(elts, self.catalog_size, dtype=self.dtype)
        probe = Portfolio.single_layer(elts)
        caps = EngineCapabilities(
            engine="quote-service",
            n_slots=self.max_workers,
            dtype=self.dtype.str,
            secondary=self.secondary is not None,
        )
        plan = self._planner.plan(self.yet, probe, caps)
        base = np.empty(self.yet.n_occurrences, dtype=self.dtype)

        def run_slot(slot: int, tasks) -> None:
            pool = ScratchBufferPool()
            for task in tasks:
                ids, _offs = self.yet.csr_block(
                    task.trial_start, task.trial_stop
                )
                combined_occurrence_losses(
                    ids,
                    stacked,
                    dtype=self.dtype,
                    out=base[task.occ_start : task.occ_stop],
                    pool=pool,
                    secondary=self.secondary,
                    stream_key=stream_key,
                    occ_base=task.occ_start,
                )

        self._scheduler.run_layer(plan, probe.layers[0].layer_id, run_slot)
        base.flags.writeable = False  # cached: shared across quotes
        return base

    # ------------------------------------------------------------------
    # Candidate losses (steps 3–4 against the cached base)
    # ------------------------------------------------------------------
    def _losses_for(
        self,
        elts: Sequence[EventLossTable],
        terms: LayerTerms,
        stream_key: int,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        """Cached year losses for (ELT set, layer terms, stream)."""
        key = ("losses", self._base_key(elts, stream_key), terms.as_tuple())

        def compute() -> np.ndarray:
            base = self._base_vector(elts, stream_key, deadline=deadline)
            scratch = base.copy()  # finish mutates (occurrence clamp)
            year = finish_layer_losses(scratch, self.yet.offsets, terms)
            year.flags.writeable = False
            return year

        return self._loss_cache.get_or_compute(
            key, compute, deadline=deadline
        )

    def candidate_losses(
        self,
        elt_ids: Sequence[int],
        terms: LayerTerms,
        layer_id: int = 9999,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        """Per-trial year losses of a candidate layer (cached, frozen).

        Bit-for-bit what a sequential-engine run of the same
        single-layer portfolio produces.  ``deadline`` propagates the
        caller's end-to-end budget into the cache waits and store
        fetches below; expired work raises the typed
        :class:`~repro.utils.retry.DeadlineExceeded` instead of
        computing.
        """
        return self._losses_for(
            self._resolve_elts(elt_ids),
            terms,
            self._stream_key(layer_id),
            deadline=deadline,
        )

    # ------------------------------------------------------------------
    # Book (marginal quoting)
    # ------------------------------------------------------------------
    def _book_portfolio_losses(self) -> np.ndarray:
        if self.book is None:
            raise RuntimeError("no book portfolio configured")
        with self._lock:
            cached = self._book_losses
        if cached is not None:
            return cached
        # Memoised: the book is fixed for the session, so the per-layer
        # sum (and, transitively, the book's base/loss cache entries) is
        # paid once, not per quote — and cannot be LRU-evicted out from
        # under a many-layer book.
        total = np.zeros(self.yet.n_trials, dtype=np.float64)
        for layer in self.book.layers:
            total += self._losses_for(
                self.book.elts_of(layer),
                layer.terms,
                self._stream_key(layer.layer_id),
            )
        total.flags.writeable = False
        with self._lock:
            if self._book_losses is None:
                self._book_losses = total
            return self._book_losses

    def _book_tail(self, confidence: float) -> float:
        if self.book is None:
            return 0.0
        with self._lock:
            cached = self._book_tvar
        if cached is not None:
            return cached
        value = tail_value_at_risk(self._book_portfolio_losses(), confidence)
        with self._lock:
            self._book_tvar = value
        return value

    # ------------------------------------------------------------------
    # Quoting
    # ------------------------------------------------------------------
    def quote(
        self,
        elt_ids: Sequence[int],
        terms: LayerTerms,
        layer_id: int = 9999,
        deadline: Deadline | None = None,
    ) -> QuoteRecord:
        """Price one candidate layer through the shared caches."""
        request = QuoteRequest(
            elt_ids=tuple(elt_ids), terms=terms, layer_id=layer_id
        )
        return self._quote_one(request, deadline=deadline)

    def quote_async(
        self,
        elt_ids: Sequence[int],
        terms: LayerTerms,
        layer_id: int = 9999,
        deadline: Deadline | None = None,
    ) -> "Future[QuoteRecord]":
        """Schedule a quote on the worker pool; returns a future.

        Concurrent quotes sharing an ELT set dedupe their base pass
        through the in-flight cache — N marginal re-quotes cost one
        expensive pass plus N cheap finishes.

        ``deadline`` rides along to the worker thread: a request whose
        budget expires while still queued behind busy lanes is
        abandoned (typed ``DeadlineExceeded`` on the future) *before*
        any kernel work runs.
        """
        request = QuoteRequest(
            elt_ids=tuple(elt_ids), terms=terms, layer_id=layer_id
        )
        return self._pool_executor().submit(
            self._quote_one, request, deadline
        )

    def quote_many(
        self, requests: Iterable[QuoteRequest | Tuple],
    ) -> List[QuoteRecord]:
        """Quote a batch of candidate layers concurrently.

        ``requests`` are :class:`QuoteRequest` objects or
        ``(elt_ids, terms)`` / ``(elt_ids, terms, layer_id)`` tuples.
        Returns records in request order.  This is the service's
        headline path: the batch shares lookup tables, base vectors and
        in-flight computations, so quoting N structures over one ELT
        set costs one gather+financial pass and N layer-term finishes.
        """
        normalised: List[QuoteRequest] = []
        for req in requests:
            if isinstance(req, QuoteRequest):
                normalised.append(req)
            else:
                normalised.append(QuoteRequest(*req))
        if not normalised:
            return []
        executor = self._pool_executor()
        futures = [executor.submit(self._quote_one, r) for r in normalised]
        return [future.result() for future in futures]

    def _quote_one(
        self,
        request: QuoteRequest,
        deadline: Deadline | None = None,
    ) -> QuoteRecord:
        if deadline is not None:
            # Expired while queued: cancelled, never computed.
            deadline.check(f"quote of {request.label or request.elt_ids}")
        candidate = Layer(
            layer_id=request.layer_id,
            elt_ids=request.elt_ids,
            terms=request.terms,
        )
        elts = self._resolve_elts(request.elt_ids)
        stream_key = self._stream_key(request.layer_id)
        cached = (
            self._loss_cache.peek(
                (
                    "losses",
                    self._base_key(elts, stream_key),
                    request.terms.as_tuple(),
                )
            )
            is not None
        )

        started = time.perf_counter()
        losses = self.candidate_losses(
            request.elt_ids,
            request.terms,
            layer_id=request.layer_id,
            deadline=deadline,
        )
        quote = price_layer(candidate, losses, self.assumptions)
        marginal: float | None = None
        if self.book is not None:
            confidence = self.assumptions.capital_confidence
            book_tail = self._book_tail(confidence)
            combined = tail_value_at_risk(
                losses + self._book_portfolio_losses(), confidence
            )
            marginal = combined - book_tail
        elapsed = time.perf_counter() - started

        record = QuoteRecord(
            quote=quote,
            analysis_seconds=elapsed,
            engine="quote-service",
            marginal_tvar=marginal,
            meta={
                "n_trials": self.yet.n_trials,
                "n_elts": len(request.elt_ids),
                "label": request.label,
                "cached": cached,
            },
        )
        with self._lock:
            self.history.append(record)
        return record

    # ------------------------------------------------------------------
    def loss_store_key(
        self,
        elt_ids: Sequence[int],
        terms: LayerTerms,
        layer_id: int = 9999,
    ) -> str:
        """The durable store key of a candidate's finished year losses.

        This is the address the loss cache writes through to when a
        ``store=`` is configured, so any service sharing the store
        replays a candidate this one computed.
        """
        elts = self._resolve_elts(elt_ids)
        stream_key = self._stream_key(layer_id)
        return self._loss_cache.store_key(
            ("losses", self._base_key(elts, stream_key), terms.as_tuple())
        )

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/eviction counters of the plan-level result caches
        (plus the backing store's, when one is configured)."""
        stats = {
            "base": self._base_cache.stats(),
            "losses": self._loss_cache.stats(),
        }
        if self.store is not None:
            stats["store"] = self.store.stats()
        return stats
