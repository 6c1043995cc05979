"""Discrete-event network simulation substrate.

This package replaces the live Internet the paper measured: a virtual clock
and event kernel (:mod:`kernel`), deterministic randomness (:mod:`rng`),
IPv4 addressing with NAT/private-range semantics (:mod:`addresses`), a
latency/loss message fabric (:mod:`transport`) and peer session churn
(:mod:`churn`).
"""

from .addresses import (AddressAllocator, HostAddress, classify_address,
                        is_private)
from .churn import ALWAYS_ON, HOME_PEER, SERVER_LIKE, ChurnProcess, ChurnProfile
from .clock import SECONDS_PER_DAY, VirtualClock, days, hours, minutes
from .events import Event
from .kernel import Simulator
from .rng import SeededStream, StreamRegistry, derive_seed
from .transport import Endpoint, Envelope, LatencyModel, Transport

__all__ = [
    "AddressAllocator", "HostAddress", "classify_address", "is_private",
    "ALWAYS_ON", "HOME_PEER", "SERVER_LIKE", "ChurnProcess", "ChurnProfile",
    "SECONDS_PER_DAY", "VirtualClock", "days", "hours", "minutes",
    "Event", "Simulator",
    "SeededStream", "StreamRegistry", "derive_seed",
    "Endpoint", "Envelope", "LatencyModel", "Transport",
]
