"""Every protocol handler's annotations name classes its module imports.

``from __future__ import annotations`` keeps annotations as strings, so
a handler can name a class its module never imports and still run;
``typing.get_type_hints`` is what finds it.
"""

import typing

import pytest

from repro.gnutella.servent import GnutellaServent
from repro.openft.nodes import OpenFTNode

HANDLERS = [(cls, name) for cls in (OpenFTNode, GnutellaServent)
            for name in sorted(vars(cls)) if name.startswith("_handle_")]


def test_both_stacks_have_handlers():
    assert {cls for cls, _ in HANDLERS} == {OpenFTNode, GnutellaServent}


@pytest.mark.parametrize("cls, name", HANDLERS,
                         ids=[f"{cls.__name__}.{name}"
                              for cls, name in HANDLERS])
def test_handler_annotations_resolve(cls, name):
    hints = typing.get_type_hints(getattr(cls, name))
    assert "return" in hints
