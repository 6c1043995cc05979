"""File types, extensions and size models for the shared-content ecosystem.

The paper's headline metric is computed over *downloadable responses whose
files are archives or executables*; audio/video responses are the bulk of
P2P traffic but are excluded from that denominator.  We therefore model the
full type mix (so query workloads and false-positive analysis see realistic
traffic) with explicit predicates for the archive+executable subset.

Size models are log-normal per type, parameterized to land on the medians
2006 measurement studies report (MP3s of a few MB, videos of hundreds of
MB, software archives of tens of MB).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from ..simnet.rng import SeededStream

__all__ = ["FileType", "SizeModel", "TYPE_EXTENSIONS", "SIZE_MODELS",
           "extension_for", "type_for_extension", "is_downloadable_type",
           "draw_size"]


class FileType(enum.Enum):
    """Coarse content classes used throughout the reproduction."""

    AUDIO = "audio"
    VIDEO = "video"
    ARCHIVE = "archive"
    EXECUTABLE = "executable"
    IMAGE = "image"
    DOCUMENT = "document"

    @property
    def counted_as_downloadable(self) -> bool:
        """True for the archive/executable subset the paper's C1 uses."""
        return self in (FileType.ARCHIVE, FileType.EXECUTABLE)


#: Extensions per type with relative frequency inside the type.
TYPE_EXTENSIONS: Dict[FileType, Tuple[Tuple[str, float], ...]] = {
    FileType.AUDIO: (("mp3", 0.82), ("wma", 0.10), ("ogg", 0.05), ("wav", 0.03)),
    FileType.VIDEO: (("avi", 0.54), ("mpg", 0.22), ("wmv", 0.16), ("mov", 0.08)),
    FileType.ARCHIVE: (("zip", 0.63), ("rar", 0.30), ("tar", 0.04), ("ace", 0.03)),
    FileType.EXECUTABLE: (("exe", 0.88), ("msi", 0.07), ("scr", 0.03), ("com", 0.02)),
    FileType.IMAGE: (("jpg", 0.80), ("gif", 0.12), ("png", 0.08)),
    FileType.DOCUMENT: (("pdf", 0.55), ("doc", 0.30), ("txt", 0.15)),
}

_EXTENSION_TO_TYPE: Dict[str, FileType] = {
    extension: file_type
    for file_type, extensions in TYPE_EXTENSIONS.items()
    for extension, _ in extensions
}

#: the extensions whose type is in the archive/executable subset
_DOWNLOADABLE_EXTENSIONS: FrozenSet[str] = frozenset(
    extension for extension, file_type in _EXTENSION_TO_TYPE.items()
    if file_type.counted_as_downloadable)


@dataclass(frozen=True)
class SizeModel:
    """Log-normal size distribution with hard floor/ceiling in bytes."""

    median_bytes: float
    sigma: float
    floor_bytes: int
    ceiling_bytes: int

    def draw(self, stream: SeededStream) -> int:
        """Draw one size; clamped to [floor, ceiling]."""
        mu = math.log(self.median_bytes)
        size = int(stream.lognormvariate(mu, self.sigma))
        return max(self.floor_bytes, min(self.ceiling_bytes, size))


SIZE_MODELS: Dict[FileType, SizeModel] = {
    FileType.AUDIO: SizeModel(4.2e6, 0.45, 500_000, 30_000_000),
    FileType.VIDEO: SizeModel(180e6, 0.80, 5_000_000, 1_500_000_000),
    FileType.ARCHIVE: SizeModel(18e6, 1.10, 40_000, 900_000_000),
    FileType.EXECUTABLE: SizeModel(2.8e6, 1.30, 20_000, 300_000_000),
    FileType.IMAGE: SizeModel(300e3, 0.70, 10_000, 8_000_000),
    FileType.DOCUMENT: SizeModel(500e3, 0.90, 4_000, 40_000_000),
}


def extension_for(file_type: FileType, stream: SeededStream) -> str:
    """Draw an extension for a file of ``file_type``."""
    extensions = TYPE_EXTENSIONS[file_type]
    names = [name for name, _ in extensions]
    weights = [weight for _, weight in extensions]
    return stream.choices(names, weights=weights, k=1)[0]


def type_for_extension(extension: str) -> FileType:
    """Map an extension back to its type.

    Unknown extensions classify as DOCUMENT, mirroring how the paper's
    pipeline would bucket oddball files outside its categories of interest.
    """
    return _EXTENSION_TO_TYPE.get(extension.lower().lstrip("."), FileType.DOCUMENT)


def is_downloadable_type(extension: str) -> bool:
    """True when the extension belongs to the archive/executable subset.

    Same answer as ``type_for_extension(extension).counted_as_downloadable``
    (unknown extensions are documents), as one set lookup.
    """
    return extension.lower().lstrip(".") in _DOWNLOADABLE_EXTENSIONS


def draw_size(file_type: FileType, stream: SeededStream) -> int:
    """Draw a file size in bytes from the type's model."""
    return SIZE_MODELS[file_type].draw(stream)
