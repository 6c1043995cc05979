"""Tests for the shared library and its keyword matching."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.files.library import SharedFile, SharedLibrary
from repro.files.names import tokenize
from repro.files.payload import Blob


def make_file(name, size=1000, key=None):
    blob = Blob(content_key=key or name, extension=name.rsplit(".", 1)[-1],
                size=size)
    return SharedFile.make(name=name, size=size,
                           extension=blob.extension, blob=blob)


@pytest.fixture()
def library():
    lib = SharedLibrary()
    lib.add(make_file("madonna_angel.mp3"))
    lib.add(make_file("madonna_crazy_remix.mp3"))
    lib.add(make_file("photoshop_crack.zip"))
    return lib


class TestAddRemove:
    def test_len(self, library):
        assert len(library) == 3

    def test_add_idempotent(self, library):
        shared = library.files()[0]
        library.add(shared)
        assert len(library) == 3

    def test_remove(self, library):
        target = library.files()[0]
        library.remove(target.file_id)
        assert len(library) == 2
        assert library.match("madonna angel") == []

    def test_remove_unknown_is_noop(self, library):
        library.remove(10**9)
        assert len(library) == 3

    def test_total_bytes(self, library):
        assert library.total_bytes() == 3000


class TestMatching:
    def test_single_token(self, library):
        assert len(library.match("madonna")) == 2

    def test_conjunctive(self, library):
        matches = library.match("madonna angel")
        assert len(matches) == 1
        assert matches[0].name == "madonna_angel.mp3"

    def test_no_partial_token_match(self, library):
        assert library.match("madon") == []

    def test_case_insensitive(self, library):
        assert len(library.match("MADONNA Angel")) == 1

    def test_unmatched_token_kills_query(self, library):
        assert library.match("madonna zebra") == []

    def test_empty_query_matches_nothing(self, library):
        assert library.match("") == []
        assert library.match("  _ ") == []

    def test_limit(self, library):
        assert len(library.match("madonna", limit=1)) == 1

    def test_extension_is_a_token(self, library):
        assert len(library.match("zip")) == 1


class TestLookups:
    def test_by_urn(self, library):
        target = library.files()[1]
        assert library.by_urn(target.sha1_urn) is target
        assert library.by_urn("urn:sha1:NOPE") is None

    def test_by_md5(self, library):
        target = library.files()[2]
        assert library.by_md5(target.blob.md5_hex()) is target
        assert library.by_md5("0" * 32) is None

    def test_all_tokens_cover_names(self, library):
        tokens = set(library.all_tokens())
        assert {"madonna", "angel", "crazy", "photoshop"} <= tokens

    def test_files_sorted_by_id(self, library):
        ids = [shared.file_id for shared in library.files()]
        assert ids == sorted(ids)


class TestFootprint:
    def test_shared_file_is_slotted(self, library):
        shared = library.files()[0]
        assert not hasattr(shared, "__dict__")
        with pytest.raises(FrozenInstanceError):
            shared.name = "renamed.mp3"


@given(st.lists(st.sampled_from(
    ["alpha", "beta", "gamma", "delta"]), min_size=1, max_size=4,
    unique=True))
@settings(max_examples=50, deadline=None)
def test_matching_invariant_every_token_present(tokens):
    """Property: a file matches a query iff it contains every query token."""
    lib = SharedLibrary()
    shared = make_file("_".join(tokens) + ".exe")
    lib.add(shared)
    assert lib.match(" ".join(tokens)) == [shared]
    assert lib.match(" ".join(tokens + ["omega"])) == []


#: a few names over a small vocabulary, so tokens are shared between
#: files and queries hit several of them; "__.__" has no tokens at all
_POOL = tuple(make_file(name) for name in (
    "alpha_beta.mp3", "beta gamma.zip", "alpha.zip", "Gamma-Delta.mp3",
    "alpha beta gamma.exe", "delta.mp3", "beta.mp3", "__.__"))
_QUERIES = ("alpha", "beta", "alpha beta", "gamma delta", "mp3",
            "beta zip", "alpha beta gamma exe", "zeta", "")
_steps = st.lists(st.tuples(st.sampled_from(("add", "remove")),
                            st.sampled_from(_POOL)), max_size=40)


@given(_steps)
@settings(max_examples=100, deadline=None)
def test_library_matches_brute_force_model(steps):
    """Oracle: after every add/remove, the token index answers as a scan
    over the shared files would."""
    library = SharedLibrary()
    shared = {}
    for action, item in steps:
        if action == "add":
            library.add(item)
            shared[item.file_id] = item
        else:
            library.remove(item.file_id)
            shared.pop(item.file_id, None)
        assert len(library) == len(shared)
        tokens = list(library.all_tokens())
        assert len(tokens) == len(set(tokens))
        assert set(tokens) == {token for item in shared.values()
                               for token in item.tokens}
        for query in _QUERIES:
            wanted = tokenize(query)
            expected = ([shared[file_id] for file_id in sorted(shared)
                         if wanted <= shared[file_id].tokens]
                        if wanted else [])
            assert library.match(query) == expected
            for limit in (0, 1, 2):
                assert library.match(query, limit=limit) == expected[:limit]
