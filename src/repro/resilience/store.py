"""Crash-safe artifact IO: atomic writes and CRC32-framed journals.

Two write disciplines cover every artifact the pipeline produces:

* **Whole-file artifacts** (``BENCH_<rev>.json``, trace exports, SARIF
  logs, Prometheus textfiles, measurement stores) go through
  :func:`atomic_writer` (streamed) or :func:`atomic_write_text` /
  :func:`atomic_write_bytes`: the bytes land in a same-directory temp
  file, are fsynced, and only then ``os.replace``d over the target.
  An interrupt at any byte offset leaves either the old file or the
  new one -- never a half-written hybrid.
* **Append-only journals** (replication checkpoints) use CRC32
  *frames*: each line is ``{"crc": "<8 hex>", "record": <payload>}``
  where the checksum covers the canonical serialization of the
  payload.  :func:`scan_frames` recovers such a file after a crash:
  a torn final line (the classic SIGKILL-mid-append) is truncated
  away, a corrupt interior record (bit rot, concurrent writer) is
  quarantined, and every committed record before and after survives.

Fault injection hooks are duck-typed (``apply_write`` /
``on_fsync``) so this module never imports the faults layer; the
chaotic-IO shim lives in :class:`repro.faults.injectors.HostIOFaults`.
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator, List, Optional, Tuple

__all__ = ["FrameError", "FrameScan", "frame_line", "parse_frame",
           "scan_frames", "recover_frames", "atomic_writer",
           "atomic_write_bytes", "atomic_write_text", "DurableAppender"]


class FrameError(ValueError):
    """A line that is not a valid CRC32 frame."""


class _NullIO:
    """The no-faults IO hook: writes pass through untouched."""

    def apply_write(self, path: Path,
                    data: bytes) -> Tuple[bytes, Optional[BaseException]]:
        return data, None

    def on_fsync(self, path: Path) -> None:
        return None


_NULL_IO = _NullIO()


def _canonical(record: object) -> str:
    """The serialization the checksum covers (stable across processes)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def frame_line(record: object) -> str:
    """One journal line (no trailing newline) carrying ``record``.

    The CRC32 is computed over the canonical JSON of the payload, so a
    reader can verify integrity by re-serializing what it parsed.
    """
    body = _canonical(record)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return _canonical({"crc": f"{crc:08x}", "record": record})


def parse_frame(line: str) -> object:
    """Decode and verify one frame line; raises :class:`FrameError`.

    Bare JSON objects (journals written before framing existed) pass
    through unverified -- there is no checksum to check, and refusing
    them would make every pre-existing checkpoint unreadable.
    """
    try:
        obj = json.loads(line)
    except ValueError as error:
        raise FrameError(f"not JSON: {error}") from None
    if not isinstance(obj, dict):
        raise FrameError(f"frame is not an object: {obj!r}")
    if set(obj) != {"crc", "record"}:
        return obj  # legacy unframed record
    body = _canonical(obj["record"])
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    if f"{crc:08x}" != obj["crc"]:
        raise FrameError(
            f"checksum mismatch: stored {obj['crc']}, computed {crc:08x}")
    return obj["record"]


@dataclass
class FrameScan:
    """What :func:`scan_frames` recovered from one journal file."""

    path: Path
    #: verified (or legacy-unframed) records, file order
    records: List[object] = field(default_factory=list)
    #: 1-based line numbers of corrupt interior records
    corrupt_lines: List[int] = field(default_factory=list)
    #: raw text of the corrupt lines (for quarantine files)
    corrupt_raw: List[str] = field(default_factory=list)
    #: bytes of torn final line that a repair would truncate
    torn_tail_bytes: int = 0
    #: byte offset the file is valid up to (truncation point)
    clean_end: int = 0
    #: records that carried no checksum (pre-framing journals)
    legacy_records: int = 0

    @property
    def healthy(self) -> bool:
        """True when a resume could consume the file as-is, losslessly."""
        return not self.corrupt_lines and self.torn_tail_bytes == 0


def scan_frames(path: Path) -> FrameScan:
    """Read every recoverable record of a framed JSONL file.

    Never raises on damage: a final line that does not parse is a torn
    tail (reported with its byte count), an interior line that does
    not parse or fails its checksum is a corrupt record (reported by
    line number), and everything verifiable is returned in order.  A
    missing file scans as empty and healthy.
    """
    scan = FrameScan(path=Path(path))
    try:
        data = Path(path).read_bytes()
    except OSError:
        return scan
    offset = 0
    # (line_start, raw_line) for every newline-terminated line, plus a
    # trailing fragment (no newline) which can only be a torn tail or
    # a complete final record whose newline the crash ate
    pieces: List[Tuple[int, bytes, bool]] = []
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            pieces.append((offset, data[offset:], False))
            break
        pieces.append((offset, data[offset:newline], True))
        offset = newline + 1
    scan.clean_end = 0
    for index, (start, raw, terminated) in enumerate(pieces):
        line = raw.decode("utf-8", errors="replace").strip()
        if not line:
            scan.clean_end = start + len(raw) + (1 if terminated else 0)
            continue
        last = index == len(pieces) - 1
        try:
            record = parse_frame(line)
        except FrameError:
            if last and not terminated:
                # torn tail: the writer died mid-line; everything
                # before this byte is intact.  A *terminated* bad line
                # cannot be a tear (its newline was written last) --
                # that is corruption, below.
                scan.torn_tail_bytes = len(data) - start
            else:
                scan.corrupt_lines.append(index + 1)
                scan.corrupt_raw.append(line)
            continue
        if _is_legacy(line):
            scan.legacy_records += 1
        scan.records.append(record)
        scan.clean_end = start + len(raw) + (1 if terminated else 0)
    return scan


def _is_legacy(line: str) -> bool:
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return isinstance(obj, dict) and set(obj) != {"crc", "record"}


def recover_frames(path: Path, repair: bool = False,
                   quarantine: Optional[Path] = None) -> FrameScan:
    """Scan ``path`` and, with ``repair``, make it healthy on disk.

    Repair truncates the torn tail in place and rewrites the file
    (atomically) without corrupt records, moving their raw lines to
    ``quarantine`` (default ``<path>.quarantine``) so no bytes are
    silently destroyed.  The returned scan describes the file as it
    was *before* the repair.
    """
    path = Path(path)
    scan = scan_frames(path)
    if not repair or scan.healthy or not path.exists():
        return scan
    if scan.corrupt_lines:
        target = Path(quarantine) if quarantine is not None else (
            path.with_name(path.name + ".quarantine"))
        with target.open("a", encoding="utf-8") as handle:
            for line in scan.corrupt_raw:
                handle.write(line + "\n")
        # rebuild from verified records: legacy rows are re-framed, so
        # one repair upgrades the whole file to checksummed frames
        text = "".join(frame_line(record) + "\n"
                       for record in scan.records)
        atomic_write_text(path, text)
    elif scan.torn_tail_bytes:
        with path.open("r+b") as handle:
            handle.truncate(scan.clean_end)
            handle.flush()
            os.fsync(handle.fileno())
    return scan


@contextmanager
def atomic_writer(path: Path, fsync: bool = True) -> Iterator[BinaryIO]:
    """Stream bytes to ``path`` so an interrupt never leaves a torn file.

    Yields a binary handle on a same-directory temp file (rename across
    filesystems is not atomic).  When the body returns, the file is
    flushed and fsynced and then ``os.replace``s the target in one step;
    when anything raises, the temp file is removed and the previous
    target content survives intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with tmp.open("wb") as handle:
            yield handle
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        try:
            tmp.unlink()
        except OSError:
            pass


def atomic_write_bytes(path: Path, data: bytes, io=None,
                       fsync: bool = True) -> Path:
    """Write ``data`` to ``path`` through :func:`atomic_writer`.

    The ``io`` hook decides what is actually written and may fail the
    write after its fsync callback; either way the target is replaced
    only by a complete, error-free write.
    """
    path = Path(path)
    hook = io if io is not None else _NULL_IO
    payload, error = hook.apply_write(path, data)
    with atomic_writer(path, fsync=fsync) as handle:
        handle.write(payload)
        hook.on_fsync(path)
        if error is not None:
            raise error
    return path


def atomic_write_text(path: Path, text: str, encoding: str = "utf-8",
                      io=None, fsync: bool = True) -> Path:
    """Text counterpart of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding), io=io,
                              fsync=fsync)


class DurableAppender:
    """Append-only JSONL writer with per-record durability.

    Every appended record is flushed and fsynced before the call
    returns, so a committed record survives a SIGKILL issued the very
    next instant; a kill *during* the append leaves at most one torn
    final line, which :func:`scan_frames` truncates on recovery.
    ``framed=True`` wraps records in CRC32 frames (checkpoints);
    ``framed=False`` keeps the raw row format (run journals, whose
    readers expect row fields at the top level).

    The ``io`` hook is the chaotic-IO injection point: it may truncate
    the bytes actually written (torn write) or raise after a partial
    write (disk full), and gets a callback around fsync (slow fsync).
    """

    def __init__(self, path: Path, framed: bool = True, io=None,
                 fsync: bool = True) -> None:
        self.path = Path(path)
        self.framed = framed
        self.fsync = fsync
        self._io = io if io is not None else _NULL_IO
        self._handle = None
        #: appends that failed (injected or real IO errors)
        self.errors = 0

    def _open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # binary append: an injected torn write must shorten the
            # file by exact bytes, not by re-encoded characters
            self._handle = self.path.open("ab")
            # a crash can eat just the final newline of a complete
            # record; appending straight after would weld two records
            # into one corrupt line, so guard with a newline (blank
            # lines are skipped by every reader)
            try:
                if self.path.stat().st_size > 0:
                    with self.path.open("rb") as peek:
                        peek.seek(-1, os.SEEK_END)
                        if peek.read(1) != b"\n":
                            self._handle.write(b"\n")
                            self._handle.flush()
            except OSError:
                pass
        return self._handle

    def append(self, record: object) -> None:
        """Durably append one record; IO errors propagate after counting."""
        line = (frame_line(record) if self.framed
                else _canonical(record)) + "\n"
        handle = self._open()
        payload, error = self._io.apply_write(self.path,
                                              line.encode("utf-8"))
        try:
            handle.write(payload)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
            self._io.on_fsync(self.path)
            if error is not None:
                raise error
        except Exception:
            self.errors += 1
            raise

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "DurableAppender":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
