"""Per-peer shared libraries with keyword search.

A :class:`SharedLibrary` is what a servent exposes to the network: a set of
files, each with a display name, size, and content identity.  Matching
follows the conjunctive-keyword semantics Gnutella and OpenFT used: a file
matches a query when every query token appears among the file-name tokens.
An inverted token index keeps matching O(tokens) instead of O(files).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .names import tokenize
from .payload import Blob

__all__ = ["SharedFile", "SharedLibrary"]

_file_counter = itertools.count()


@dataclass(frozen=True, slots=True)
class SharedFile:
    """One entry of a peer's shared folder."""

    file_id: int
    name: str
    size: int
    extension: str
    blob: Blob
    sha1_urn: str
    tokens: FrozenSet[str] = field(default_factory=frozenset)

    @staticmethod
    def make(name: str, size: int, extension: str, blob: Blob) -> "SharedFile":
        """Build a shared file, computing tokens and content identity."""
        return SharedFile(
            file_id=next(_file_counter),
            name=name,
            size=size,
            extension=extension,
            blob=blob,
            sha1_urn=blob.sha1_urn(),
            tokens=tokenize(name),
        )


class SharedLibrary:
    """A peer's shared folder plus its inverted keyword index."""

    def __init__(self) -> None:
        self._files: Dict[int, SharedFile] = {}
        #: token -> ids of the files whose name has it, in add order (a
        #: token is in ~2 files of a library: a tuple is a quarter of a set)
        self._token_index: Dict[str, Tuple[int, ...]] = {}
        #: bumped by every add/remove that changes the shared set, so
        #: encodings derived from the library can be cached per version
        self.version = 0

    def __len__(self) -> int:
        return len(self._files)

    def __iter__(self):
        return iter(self._files.values())

    def add(self, shared: SharedFile) -> None:
        """Share a file (idempotent per file_id)."""
        if shared.file_id in self._files:
            return
        self._files[shared.file_id] = shared
        self.version += 1
        index = self._token_index
        for token in shared.tokens:
            index[token] = index.get(token, ()) + (shared.file_id,)

    def remove(self, file_id: int) -> None:
        """Stop sharing a file."""
        shared = self._files.pop(file_id, None)
        if shared is None:
            return
        self.version += 1
        index = self._token_index
        for token in shared.tokens:
            remaining = tuple(other for other in index[token]
                              if other != file_id)
            if remaining:
                index[token] = remaining
            else:
                del index[token]

    def files(self) -> List[SharedFile]:
        """Snapshot of all shared files (stable id order)."""
        return [self._files[file_id] for file_id in sorted(self._files)]

    def match(self, query: str, limit: Optional[int] = None) -> List[SharedFile]:
        """Files whose name contains *every* query token.

        An empty/unparseable query matches nothing, as real servents refused
        such searches.
        """
        query_tokens = tokenize(query)
        if not query_tokens:
            return []
        candidate_sets = []
        for token in query_tokens:
            bucket = self._token_index.get(token)
            if not bucket:
                return []
            candidate_sets.append(bucket)
        candidate_sets.sort(key=len)
        matched_ids = set(candidate_sets[0])
        for bucket in candidate_sets[1:]:
            matched_ids.intersection_update(bucket)
            if not matched_ids:
                return []
        matches = [self._files[file_id] for file_id in sorted(matched_ids)]
        return matches[:limit] if limit is not None else matches

    def all_tokens(self) -> Iterable[str]:
        """Every distinct token shared (QRP table construction uses this)."""
        return self._token_index.keys()

    def by_urn(self, sha1_urn: str) -> Optional[SharedFile]:
        """Look up a shared file by content identity (download by hash)."""
        for shared in self._files.values():
            if shared.sha1_urn == sha1_urn:
                return shared
        return None

    def by_md5(self, md5_hex: str) -> Optional[SharedFile]:
        """Look up a shared file by MD5 (OpenFT's content identity)."""
        for shared in self._files.values():
            if shared.blob.md5_hex() == md5_hex:
                return shared
        return None

    def total_bytes(self) -> int:
        """Sum of shared sizes (OpenFT share digests report this)."""
        return sum(shared.size for shared in self._files.values())
