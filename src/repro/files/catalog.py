"""The content catalog: the universe of works peers can share.

A *work* is a logical piece of content (a song, a movie, an application);
each work exists in one or more *versions* (different rips/encodings),
and every version is a concrete :class:`~repro.files.payload.Blob` with a
stable SHA-1 identity.  Peers populate their libraries by sampling works
Zipf-by-popularity and picking one version, so popular works end up widely
replicated -- the precondition for queries returning many responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

from ..simnet.rng import SeededStream
from .names import NameGenerator
from .payload import Blob
from .types import FileType, draw_size, extension_for
from .zipf import ZipfSampler

__all__ = ["Work", "FileVersion", "CatalogConfig", "ContentCatalog"]


class Work(NamedTuple):
    """A logical piece of content identified by its keywords."""

    work_id: int
    file_type: FileType
    keywords: Tuple[str, ...]


class FileVersion(NamedTuple):
    """One concrete encoding of a work; globally bit-identical content."""

    version_id: str
    work: Work
    extension: str
    size: int
    blob: Blob

    @property
    def sha1_urn(self) -> str:
        """Content identity of this version."""
        return self.blob.sha1_urn()


@dataclass(frozen=True)
class CatalogConfig:
    """Catalog shape knobs.

    ``type_mix`` is the probability a work belongs to each type; the default
    mix follows the audio-heavy, video-second traffic composition of 2006
    networks while keeping enough archives/executables for the paper's
    denominator to be well-populated.
    """

    works: int = 2000
    zipf_alpha: float = 0.85
    mean_versions: float = 2.2
    type_mix: Tuple[Tuple[FileType, float], ...] = (
        (FileType.AUDIO, 0.46),
        (FileType.VIDEO, 0.17),
        (FileType.ARCHIVE, 0.13),
        (FileType.EXECUTABLE, 0.12),
        (FileType.IMAGE, 0.07),
        (FileType.DOCUMENT, 0.05),
    )


class ContentCatalog:
    """Generates and indexes the universe of works and versions."""

    def __init__(self, config: CatalogConfig, stream: SeededStream) -> None:
        self.config = config
        self._stream = stream
        self._names = NameGenerator(stream)
        self.works: List[Work] = []
        self.versions_by_work: Dict[int, List[FileVersion]] = {}
        self._popularity = ZipfSampler(config.works, config.zipf_alpha)
        self._generate()

    def _type_sequence(self) -> List[FileType]:
        """Deterministic largest-remainder interleaving of the type mix.

        Every popularity-rank prefix carries (as closely as possible) the
        configured type proportions, so "the top-K works" always spans all
        categories -- real charts do, and campaign measurements would
        otherwise swing wildly with which types the RNG put on top.
        """
        types = [file_type for file_type, _ in self.config.type_mix]
        total = sum(weight for _, weight in self.config.type_mix)
        weights = [weight / total for _, weight in self.config.type_mix]
        counts = [0] * len(types)
        sequence: List[FileType] = []
        for index in range(self.config.works):
            deficits = [weight * (index + 1) - count
                        for weight, count in zip(weights, counts)]
            pick = max(range(len(types)), key=lambda i: deficits[i])
            counts[pick] += 1
            sequence.append(types[pick])
        return sequence

    def _generate(self) -> None:
        version_success = 1.0 / self.config.mean_versions
        type_sequence = self._type_sequence()
        for work_id in range(self.config.works):
            file_type = type_sequence[work_id]
            work = Work(work_id=work_id, file_type=file_type,
                        keywords=self._names.work_keywords(file_type))
            self.works.append(work)
            version_count = self._stream.geometric(version_success)
            versions = [self._make_version(work, index)
                        for index in range(version_count)]
            self.versions_by_work[work_id] = versions

    def _make_version(self, work: Work, index: int) -> FileVersion:
        extension = extension_for(work.file_type, self._stream)
        size = draw_size(work.file_type, self._stream)
        version_id = f"w{work.work_id}v{index}"
        blob = Blob(content_key=f"catalog:{version_id}",
                    extension=extension, size=size)
        return FileVersion(version_id=version_id, work=work,
                           extension=extension, size=size, blob=blob)

    # -- sampling -----------------------------------------------------------
    def sample_work(self, stream: SeededStream) -> Work:
        """Draw a work by Zipf popularity (rank 1 = most popular)."""
        rank = self._popularity.sample_one(stream)
        return self.works[rank - 1]

    def sample_version(self, stream: SeededStream) -> FileVersion:
        """Draw a work then a uniform version of it."""
        work = self.sample_work(stream)
        return stream.choice(self.versions_by_work[work.work_id])

    def popular_works(self, count: int) -> List[Work]:
        """The ``count`` most popular works (the query workload uses these)."""
        return self.works[:count]

    def decorate_filename(self, version: FileVersion) -> str:
        """A sharer-specific display name for a version."""
        return self._names.decorate(version.work.keywords, version.extension)

    @property
    def total_versions(self) -> int:
        """Number of distinct content versions in the universe."""
        return sum(len(v) for v in self.versions_by_work.values())
