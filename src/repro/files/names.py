"""Keyword vocabulary and file naming.

Gnutella and OpenFT searches are keyword searches over file names, so the
shape of names controls everything downstream: what queries hit, how query-
echo malware camouflages itself, and how plausible false positives look.

Names are built from themed word pools (music, movies, software, adult --
the query categories P2P measurement studies consistently report) and
normalized the way 2006 servents did: lowercase, separators collapsed,
tokens split on non-alphanumerics.
"""

from __future__ import annotations

import re
import sys
from typing import FrozenSet, List, Sequence, Tuple

from ..simnet.rng import SeededStream
from .types import FileType

__all__ = ["WORD_POOLS", "POPULAR_QUERIES", "tokenize", "normalize",
           "NameGenerator"]

#: Themed word pools.  Deliberately sized so collisions between unrelated
#: works are possible but uncommon, as with real shared-folder names.
WORD_POOLS = {
    "music_artist": (
        "madonna", "eminem", "metallica", "shakira", "coldplay", "nirvana",
        "beatles", "rihanna", "outkast", "greenday", "akon", "beyonce",
        "usher", "nelly", "ludacris", "shania", "korn", "staind",
    ),
    "music_title": (
        "angel", "crazy", "forever", "dance", "night", "love", "sorry",
        "fire", "dream", "summer", "heaven", "broken", "golden", "remix",
        "acoustic", "live", "unplugged", "anthem",
    ),
    "movie_title": (
        "matrix", "spiderman", "batman", "pirates", "caribbean", "titanic",
        "gladiator", "shrek", "superman", "narnia", "davinci", "code",
        "mission", "impossible", "casino", "royale", "ice", "age",
    ),
    "movie_tag": (
        "dvdrip", "cam", "screener", "xvid", "divx", "unrated", "widescreen",
        "telesync", "proper", "limited",
    ),
    "software_title": (
        "photoshop", "office", "windows", "winzip", "nero", "norton",
        "acrobat", "autocad", "dreamweaver", "flash", "quicktime", "winamp",
        "divxpro", "partition", "magic", "tuneup",
    ),
    "software_tag": (
        "keygen", "crack", "serial", "patch", "installer", "setup", "full",
        "pro", "premium", "registered", "activator", "loader",
    ),
    "adult_tag": (
        "hot", "xxx", "sexy", "teen", "amateur", "webcam", "private",
        "hidden", "paris", "pamela",
    ),
    "generic": (
        "new", "best", "top", "free", "2005", "2006", "vol1", "vol2",
        "collection", "ultimate", "deluxe", "edition",
    ),
}

#: Query strings every 2006 popularity ranking contained some variant of.
#: They live here (not in the measurement layer) because share-infecting
#: malware named its bait copies after exactly these hot search terms.
POPULAR_QUERIES = (
    "free music", "top hits 2006", "photoshop crack", "windows keygen",
    "office serial", "norton full", "dvdrip xvid", "hot webcam",
    "paris hidden", "winzip installer",
)

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


def normalize(name: str) -> str:
    """Lowercase and collapse separators, as servent matchers did."""
    return re.sub(r"[\s_\-.]+", " ", name.lower()).strip()


def tokenize(name: str) -> FrozenSet[str]:
    """Set of alphanumeric tokens of a (file or query) name.

    Each token is interned: the word pools bound the vocabulary, so one
    string per token serves every file's token set and every index key.
    """
    return frozenset(map(sys.intern, _TOKEN_PATTERN.findall(name.lower())))


class NameGenerator:
    """Draws plausible work titles and file names per content category."""

    _CATEGORY_POOLS = {
        FileType.AUDIO: ("music_artist", "music_title"),
        FileType.VIDEO: ("movie_title", "movie_title"),
        FileType.ARCHIVE: ("software_title", "software_tag"),
        FileType.EXECUTABLE: ("software_title", "software_tag"),
        FileType.IMAGE: ("adult_tag", "generic"),
        FileType.DOCUMENT: ("software_title", "generic"),
    }

    def __init__(self, stream: SeededStream) -> None:
        self._stream = stream

    def work_keywords(self, file_type: FileType) -> Tuple[str, ...]:
        """Draw the 2-3 identifying keywords of a distinct work."""
        primary_pool, secondary_pool = self._CATEGORY_POOLS[file_type]
        keywords: List[str] = [
            self._stream.choice(WORD_POOLS[primary_pool]),
            self._stream.choice(WORD_POOLS[secondary_pool]),
        ]
        if self._stream.bernoulli(0.4):
            keywords.append(self._stream.choice(WORD_POOLS["generic"]))
        return tuple(dict.fromkeys(keywords))  # dedupe, keep order

    def decorate(self, keywords: Sequence[str], extension: str) -> str:
        """Turn work keywords into one shared file's name.

        Different sharers of the same work produce different decorations
        (separator style, optional tags), which is why the same content
        appears under many names in real networks.
        """
        parts = list(keywords)
        if self._stream.bernoulli(0.35):
            parts.append(self._stream.choice(WORD_POOLS["generic"]))
        separator = self._stream.choice(["_", " ", "-", "."])
        stem = separator.join(parts)
        if self._stream.bernoulli(0.2):
            stem = stem.title()
        return f"{stem}.{extension}"

    def query_from_keywords(self, keywords: Sequence[str],
                            max_terms: int = 2) -> str:
        """Form a search string a user hunting this work would type."""
        terms = list(keywords[:max_terms])
        return " ".join(terms)
