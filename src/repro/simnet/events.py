"""The event record of the discrete-event kernel.

An :class:`Event` is a ``(time, seq, callback, label, args)`` tuple,
and the scheduler (:mod:`repro.simnet.sched`) keeps the events
themselves in its heap, so they pop in ``(time, seq)`` order.  The
sequence number breaks ties deterministically: two events scheduled for
the same instant fire in scheduling order, which is what keeps campaign
runs bit-for-bit reproducible across Python versions.  ``seq`` is
unique, so a comparison between two events never reaches ``callback``.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Tuple

__all__ = ["Event"]


class Event(NamedTuple):
    """A scheduled callback.

    ``args`` are splatted into the callback when the kernel fires it:
    ``callback(*args)``.  High-volume schedulers (the transport's
    delivery path) pass a shared method plus an args tuple instead of
    allocating a fresh closure per message.  Equality covers every
    field, as for any tuple.
    """

    time: float
    seq: int
    callback: Callable[..., Any]
    label: str = ""
    args: Tuple[Any, ...] = ()
