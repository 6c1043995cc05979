"""Resilient execution substrate: durable artifacts, the process pool.

The paper's month-long crawls survived flaky hosts and partial data;
this package gives the *reproduction pipeline itself* the same
property.  Three stdlib-only layers, importing nothing above them:

* :mod:`~repro.resilience.store` -- crash-safe artifact IO.  Atomic
  whole-file writes (tmp + ``os.replace``), CRC32-checksummed JSONL
  frames for append-only journals, and a recovery scanner that
  truncates torn tails and quarantines corrupt interior records
  instead of raising.  A SIGKILL at any byte offset of a write loses
  at most the record being written, never a committed one.
* :mod:`~repro.resilience.supervisor` -- the one process pool.  With
  two or more workers each task runs in its own OS process that
  heartbeats over its result pipe; the parent kills workers that stop
  beating (stall watchdog) or overrun an opt-in wall-clock deadline,
  requeues them once, and degrades to a reportable failure outcome
  once retries are exhausted -- a permanently hung worker can never
  block the run forever.  One worker runs every task in the calling
  process.
* :mod:`~repro.resilience.doctor` -- the offline repair tool behind
  ``repro-study doctor``: verifies on-disk artifacts, reports what a
  resume would recover, and (with ``repair=True``) truncates torn
  tails and quarantines corrupt records.

Host faults (:class:`~repro.faults.plan.WorkerHang`, ``WorkerStall``,
``TornWrite``, ``DiskFull``, ``SlowFsync``) are *declared* in
:mod:`repro.faults` and enforced here through duck-typed hooks, so
this package stays at the bottom of the layer DAG.
"""

from .doctor import ArtifactReport, DoctorReport, run_doctor
from .store import (FrameScan, atomic_write_bytes, atomic_write_text,
                    atomic_writer, frame_line, parse_frame, scan_frames,
                    DurableAppender, recover_frames)
from .supervisor import (HostIntervention, SupervisionPolicy, SupervisedKill,
                         resolve_workers, supervised_map)

__all__ = [
    "atomic_writer", "atomic_write_bytes", "atomic_write_text",
    "frame_line", "parse_frame",
    "scan_frames", "recover_frames", "FrameScan", "DurableAppender",
    "SupervisionPolicy", "HostIntervention", "SupervisedKill",
    "resolve_workers", "supervised_map",
    "ArtifactReport", "DoctorReport", "run_doctor",
]
