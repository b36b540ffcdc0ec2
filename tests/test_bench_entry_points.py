"""The benchmark's traced run wraps named entry points of the program.

A renamed or deleted entry point only makes the traced run print
``missing entry point (metrics omitted)`` and drop that layer metric, so
this test fails instead.  ``bench/layers.py`` is compiled from its source
text and never imported, so the test writes nothing under ``bench/``.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    module = types.ModuleType("_bench_layers")
    module.__file__ = str(LAYERS)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"),
             module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


def test_every_entry_point_site_resolves(layers):
    missing = [(entry.name, site) for entry in layers.ENTRY_POINTS
               for site in entry.sites if not layers._resolve(site)]
    assert missing == []
