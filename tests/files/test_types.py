"""Tests for file types and size models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.files.types import (FileType, SIZE_MODELS, TYPE_EXTENSIONS,
                               draw_size, extension_for,
                               is_downloadable_type, type_for_extension)
from repro.simnet.rng import SeededStream


class TestTypeMapping:
    @pytest.mark.parametrize("extension,expected", [
        ("mp3", FileType.AUDIO), ("avi", FileType.VIDEO),
        ("zip", FileType.ARCHIVE), ("rar", FileType.ARCHIVE),
        ("exe", FileType.EXECUTABLE), ("scr", FileType.EXECUTABLE),
        ("jpg", FileType.IMAGE), ("pdf", FileType.DOCUMENT),
    ])
    def test_known_extensions(self, extension, expected):
        assert type_for_extension(extension) is expected

    def test_case_and_dot_insensitive(self):
        assert type_for_extension(".EXE") is FileType.EXECUTABLE
        assert type_for_extension("Zip") is FileType.ARCHIVE

    def test_unknown_extension_is_document(self):
        assert type_for_extension("xyz") is FileType.DOCUMENT

    @pytest.mark.parametrize("extension", ["zip", "rar", "exe", "msi",
                                           "scr", "com", "ace", "tar"])
    def test_downloadable_subset(self, extension):
        assert is_downloadable_type(extension)

    @pytest.mark.parametrize("extension", ["mp3", "avi", "jpg", "pdf", "xyz"])
    def test_not_downloadable_subset(self, extension):
        assert not is_downloadable_type(extension)

    @given(st.one_of(
        st.sampled_from([extension for extensions in TYPE_EXTENSIONS.values()
                         for extension, _ in extensions]),
        st.text(max_size=8)))
    @settings(max_examples=300, deadline=None)
    def test_downloadable_subset_matches_type_mapping(self, extension):
        for variant in (extension, extension.upper(), "." + extension):
            assert is_downloadable_type(variant) == (
                type_for_extension(variant).counted_as_downloadable)

    def test_counted_as_downloadable_property(self):
        assert FileType.ARCHIVE.counted_as_downloadable
        assert FileType.EXECUTABLE.counted_as_downloadable
        assert not FileType.AUDIO.counted_as_downloadable

    def test_every_type_has_extensions_and_size_model(self):
        for file_type in FileType:
            assert TYPE_EXTENSIONS[file_type]
            assert file_type in SIZE_MODELS


class TestSizes:
    def test_draw_within_bounds(self):
        stream = SeededStream(1, "sizes")
        for file_type in FileType:
            model = SIZE_MODELS[file_type]
            for _ in range(50):
                size = draw_size(file_type, stream)
                assert model.floor_bytes <= size <= model.ceiling_bytes

    def test_audio_median_reasonable(self):
        stream = SeededStream(2, "audio")
        sizes = sorted(draw_size(FileType.AUDIO, stream)
                       for _ in range(500))
        median = sizes[len(sizes) // 2]
        assert 3e6 < median < 6e6

    def test_video_bigger_than_audio(self):
        stream = SeededStream(3, "cmp")
        video = sum(draw_size(FileType.VIDEO, stream)
                    for _ in range(100)) / 100
        audio = sum(draw_size(FileType.AUDIO, stream)
                    for _ in range(100)) / 100
        assert video > 10 * audio

    def test_extension_for_draws_from_type_pool(self):
        stream = SeededStream(4, "ext")
        valid = {name for name, _ in TYPE_EXTENSIONS[FileType.ARCHIVE]}
        for _ in range(50):
            assert extension_for(FileType.ARCHIVE, stream) in valid
