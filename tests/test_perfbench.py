"""The package surface the benchmark harness in perfbench/ reaches into.

The harness wraps named functions and reads two private tables from
outside the package; a rename under src/ would break it silently until the
next benchmark run, so the names it needs are checked here.
"""

from pathlib import Path

import pytest

from affine_verma import liealg, verma

PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def probe(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    import probe
    return probe


def test_every_boundary_resolves(probe):
    for _, _, target, attr in probe.BOUNDARIES:
        probe._resolve(target, attr)


def test_memo_and_table_readers(probe):
    module = verma.vacuum_module("D", 4)
    assert probe.memo_size(module) >= 0
    assert probe.table_cells(module.alg) >= 0


def test_cache_clearers_exist():
    assert callable(liealg.algebra.cache_clear)
    assert callable(verma.vacuum_module.cache_clear)
