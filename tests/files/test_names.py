"""Tests for naming and tokenization."""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.files.names import (POPULAR_QUERIES, WORD_POOLS, NameGenerator,
                               normalize, tokenize)
from repro.files.types import FileType
from repro.simnet.rng import SeededStream


class TestTokenize:
    def test_splits_on_separators(self):
        assert tokenize("madonna_angel-remix.live.mp3") == frozenset(
            {"madonna", "angel", "remix", "live", "mp3"})

    def test_lowercases(self):
        assert tokenize("Madonna ANGEL") == frozenset({"madonna", "angel"})

    def test_empty(self):
        assert tokenize("") == frozenset()
        assert tokenize("___") == frozenset()

    def test_numbers_kept(self):
        assert "2006" in tokenize("top hits 2006")

    def test_tokens_are_interned(self):
        # built at run time, so only interning makes them the same object
        first = tokenize("_".join(["madonna", "angel.mp3"]))
        second = tokenize("-".join(["Madonna", "angel"]))
        for token in ("madonna", "angel"):
            ours = next(word for word in first if word == token)
            theirs = next(word for word in second if word == token)
            assert ours is theirs is sys.intern(token)

    @given(st.text(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_total_function(self, text):
        tokens = tokenize(text)
        assert all(token == token.lower() for token in tokens)


class TestNormalize:
    def test_collapses_separators(self):
        assert normalize("A__b--c.d") == "a b c d"

    def test_strips(self):
        assert normalize("  hello ") == "hello"


class TestNameGenerator:
    def make(self):
        return NameGenerator(SeededStream(7, "names"))

    def test_work_keywords_nonempty_unique(self):
        generator = self.make()
        for file_type in FileType:
            keywords = generator.work_keywords(file_type)
            assert 2 <= len(keywords) <= 3
            assert len(set(keywords)) == len(keywords)

    def test_decorate_contains_keywords_and_extension(self):
        generator = self.make()
        for _ in range(30):
            name = generator.decorate(("madonna", "angel"), "mp3")
            assert name.endswith(".mp3")
            tokens = tokenize(name)
            assert {"madonna", "angel"} <= tokens

    def test_query_from_keywords_limits_terms(self):
        generator = self.make()
        query = generator.query_from_keywords(("a", "b", "c"), max_terms=2)
        assert query == "a b"

    def test_popular_queries_tokens_overlap_pools(self):
        # bait naming relies on popular-query tokens existing in the pools
        pool_tokens = set()
        for words in WORD_POOLS.values():
            pool_tokens.update(words)
        hits = sum(1 for query in POPULAR_QUERIES
                   if tokenize(query) & pool_tokens)
        assert hits >= len(POPULAR_QUERIES) // 2
