"""The benchmark's traced run wraps named entry points of the program.

A renamed or deleted entry point only makes the traced run print
``missing entry point (metrics omitted)`` and drop that layer metric, so
this test fails instead.  ``bench/layers.py`` is compiled from its source
text and never imported, so the test writes nothing under ``bench/``.
"""

from __future__ import annotations

import pytest

from conftest import bench_module


@pytest.fixture(scope="module")
def layers():
    with bench_module("layers") as module:
        yield module


def test_every_entry_point_site_resolves(layers):
    missing = [(entry.name, site) for entry in layers.ENTRY_POINTS
               for site in entry.sites if not layers._resolve(site)]
    assert missing == []
