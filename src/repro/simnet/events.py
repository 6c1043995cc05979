"""The event record of the discrete-event kernel.

An :class:`Event` is a ``(time, seq, callback)`` triple; the scheduler
(:mod:`repro.simnet.sched`) orders events by ``(time, seq)``.  The
sequence number breaks ties deterministically: two events scheduled for
the same instant fire in scheduling order, which is what keeps campaign
runs bit-for-bit reproducible across Python versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Tuple

__all__ = ["Event"]


# A dataclass, not a NamedTuple: the queue sets ``cancelled`` and
# ``pending`` after construction.
@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Cancel through ``Simulator.cancel`` (the queue keeps its counts
    right); ``cancelled`` events stay queued and are skipped on pop --
    the standard lazy-deletion idiom.

    ``args`` are splatted into the callback when the kernel fires it:
    ``callback(*args)``.  High-volume schedulers (the transport's
    delivery path) pass a shared method plus an args tuple instead of
    allocating a fresh closure per message.
    """

    time: float
    seq: int
    callback: Callable[..., Any] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    args: Tuple[Any, ...] = field(default=(), compare=False)
    #: True while the event waits in the queue; cleared when it fires
    #: or is cancelled, so a later cancel leaves the counts alone.
    pending: bool = field(default=False, compare=False, repr=False)
