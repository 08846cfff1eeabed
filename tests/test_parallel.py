"""The one process rule every split follows: one process per CPU that
numpy's BLAS pool leaves free, while each gets its caller's minimum work."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dorsalhash import parallel

SRC = str(Path(parallel.__file__).resolve().parents[1])


@pytest.mark.parametrize("cpus, pool, processes", [(2, 2, 1), (2, 1, 2), (4, 2, 2), (1, 2, 1), (8, 3, 2)])
def test_process_count_divides_the_cpus_by_the_blas_pool(monkeypatch, cpus, pool, processes):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(parallel, "blas_threads", lambda: pool)
    assert parallel.process_count(100, 1, 1) == processes


def test_process_count_gives_each_process_its_minimum_work_and_an_item(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
    monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
    # 10 items of 3 work each, at least 7 work a process: 30 // 7 = 4.
    assert parallel.process_count(10, 3, 7) == 4
    assert parallel.process_count(3, 100, 1) == 3
    assert parallel.process_count(1, 100, 1) == 1
    assert parallel.process_count(0, 100, 1) == 1


def test_blocks_are_contiguous_and_differ_by_at_most_one():
    assert parallel.blocks(7, 3) == [range(0, 2), range(2, 4), range(4, 7)]
    assert parallel.blocks(5, 1) == [range(0, 5)]


def _fresh_blas_threads(**env) -> dict:
    code = ("import json, numpy as np\n"
            "from dorsalhash import parallel\n"
            "blas = np.show_config(mode='dicts')['Build Dependencies']['blas']['name']\n"
            "print(json.dumps([parallel.blas_threads(), parallel._blas_getter() is not None, blas]))\n")
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=False,
                          env={**base, "PYTHONPATH": SRC, **env})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blas_threads_reads_the_pool_of_the_loaded_blas(threads):
    count, found, blas = _fresh_blas_threads(OPENBLAS_NUM_THREADS=threads)
    assert count == int(threads)
    if "openblas" in blas:
        assert found, f"no thread-count getter found in the loaded {blas}"


def test_without_a_getter_the_environment_is_read_then_every_cpu_assumed(monkeypatch):
    monkeypatch.setattr(parallel, "_blas_getter", lambda: None)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setenv("OMP_NUM_THREADS", "5")
    assert parallel.blas_threads() == 3
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "many")
    assert parallel.blas_threads() == 5
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.delenv("OMP_NUM_THREADS")
    assert parallel.blas_threads() == (os.cpu_count() or 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: os.cpu_count() or 1)
    assert parallel.process_count(100, 1, 1) == 1


def test_one_block_runs_here_without_multiprocessing(monkeypatch):
    monkeypatch.setitem(sys.modules, "multiprocessing", None)  # importing it raises ImportError
    assert parallel.map_blocks(lambda block: np.arange(block.start, block.stop), [range(2, 5)], str)[0].tolist() \
        == [2, 3, 4]
