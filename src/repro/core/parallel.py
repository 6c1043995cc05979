"""Process-pool fan-out for multi-seed replication campaigns.

A replication campaign is embarrassingly parallel: every seed builds its
own world, runs its own simulator and touches no shared state, so seeds
can run in separate OS processes.  :func:`parallel_map` fans a picklable
worker over the seed list with a ``ProcessPoolExecutor`` and returns
results **in input order**, so the merged report is byte-identical to
the serial path regardless of which seed finishes first.

Degradation is deliberate and silent: ``workers <= 1``, a missing
``multiprocessing`` implementation (some sandboxes), or a pool that dies
on startup all fall back to the plain serial loop.  Correctness never
depends on the pool -- it is a wall-clock optimisation only.

This pool *trusts* its workers: a wedged worker blocks the pool
forever.  Campaigns that must survive hostile hosts pass
``supervision=`` to ``run_replications``, which swaps in the
heartbeat-watchdog pool from :mod:`repro.resilience.supervisor`
instead -- same input-order result contract, same picklability rules.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

__all__ = ["resolve_workers", "parallel_map", "merge_worker_registries"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: Optional[int], tasks: int) -> int:
    """Effective worker count: ``None`` means one per CPU, capped by tasks."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(workers, tasks))


def parallel_map(fn: Callable[[T], R], items: Sequence[T],
                 workers: Optional[int] = None,
                 on_result: Optional[Callable[[T, R], None]] = None,
                 ) -> List[R]:
    """Map ``fn`` over ``items``, fanning out over processes when possible.

    ``fn`` and every item must be picklable when ``workers > 1`` (the
    worker function must be defined at module top level).  Results come
    back in input order.  Any failure to *start* the pool falls back to
    the serial loop; exceptions raised by ``fn`` itself propagate
    unchanged in both modes.

    ``on_result(item, result)`` fires as each result lands (in input
    order) -- the hook incremental checkpointing hangs off.  After a
    mid-flight pool loss (``BrokenProcessPool``) the surviving work is
    redone serially and the hook may fire *again* for items that
    already reported; consumers that persist must deduplicate.
    """
    items = list(items)

    def serial() -> List[R]:
        results = []
        for item in items:
            result = fn(item)
            if on_result is not None:
                on_result(item, result)
            results.append(result)
        return results

    effective = resolve_workers(workers, len(items))
    if effective <= 1 or len(items) <= 1:
        return serial()
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        pool = ProcessPoolExecutor(max_workers=effective)
    except (ImportError, NotImplementedError, OSError, ValueError):
        return serial()
    try:
        results = []
        for item, result in zip(items, pool.map(fn, items)):
            if on_result is not None:
                on_result(item, result)
            results.append(result)
        return results
    except BrokenProcessPool:
        # workers died before producing results (fork denied, OOM kill,
        # ...): the computation is pure, so redo it serially
        return serial()
    finally:
        pool.shutdown(wait=True)


def merge_worker_registries(parent, snapshots: Iterable[dict]):
    """Fold per-worker ``MetricRegistry`` snapshots into ``parent``.

    Workers cannot share a registry across process boundaries, so each
    ships back ``registry.snapshot()`` (a plain picklable dict) and the
    parent merges them here **in input order** -- counters and
    histograms sum, gauges keep the max -- making the merged registry
    identical no matter which worker finished first, the same guarantee
    :func:`parallel_map` gives for results.  Returns ``parent``.
    """
    for snapshot in snapshots:
        parent.merge_snapshot(snapshot)
    return parent

