"""The package surface the benchmark harness in perfbench/ reaches into.

The harness wraps named functions and reads two private tables from
outside the package; a rename under src/ would break it silently until the
next benchmark run, so the names it needs are checked here.
"""

import subprocess
import sys
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


def test_smoke_run_passes():
    # every workload at rank 4, untraced and traced, against the golden
    # digests and the metric names BENCHMARK.json declares
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"],
                          cwd=PERFBENCH_DIR.parent, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
