"""Contiguous blocks of independent work, split across forked processes.

The protocol (its gallery subjects), training (the samples of each batch)
and the many-image forwards of the network split their work here.  The
calling process works the first block and one forked child per other block
works it, inheriting the inputs and piping back only its result, so every
block runs the same code on the same inputs as a one-process run would.

How many processes is one rule for every caller: one per usable CPU that
numpy's BLAS pool leaves free, while each process gets at least the
caller's minimum of work.  A BLAS pool of T threads already keeps T CPUs
busy, so a child per CPU would oversubscribe them.
"""

from __future__ import annotations

import functools
import os
import re
import threading
from collections.abc import Callable

import numpy  # noqa: F401  (loads numpy's BLAS before _blas_function looks in it)

# Getters of OpenBLAS builds, each under the names of the scipy-openblas
# builds numpy wheels ship (64- and 32-bit integers), then a plain OpenBLAS.
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")
_BLAS_CORE_GETTERS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                      "openblas_get_corename64_", "openblas_get_corename")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _blas_function(names: tuple[str, ...]):
    """The first of ``names`` that the OpenBLAS this process has loaded
    exports, or None where no loaded library (listed in /proc/self/maps)
    exports one."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = dict.fromkeys(m.group(1) for m in re.finditer(r"(/\S*openblas\S*)$", fh.read(), re.M))
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            function = getattr(lib, name, None)
            if function is not None:
                return function
    return None


def _blas_getter():
    """The thread-count getter of the loaded OpenBLAS, or None."""
    return _blas_function(_BLAS_THREAD_GETTERS)


def blas_threads() -> int:
    """Threads in numpy's BLAS pool: asked of the loaded OpenBLAS, else read
    from OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS.  Without any of these
    the pool is taken to span every CPU."""
    getter = _blas_getter()
    if getter is not None:
        return max(1, int(getter()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            return max(1, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    return os.cpu_count() or 1


def blas_core() -> str:
    """The kernel the loaded OpenBLAS picked for this CPU (``SkylakeX``,
    ``Haswell``, ...), or "unknown" where no loaded library says."""
    getter = _blas_function(_BLAS_CORE_GETTERS)
    if getter is None:
        return "unknown"
    import ctypes

    getter.restype = ctypes.c_char_p
    return (getter() or b"unknown").decode("ascii", "replace")


def process_count(items: int, item_work: int, min_work: int) -> int:
    """Processes that share ``items`` items of ``item_work`` work each: one
    per CPU the BLAS pool leaves free (usable CPUs // BLAS threads), while
    each gets at least one item and ``min_work`` work.  Only one without
    ``fork`` or while other threads run, since a forked child inherits the
    locks they hold."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    most = min(items, items * item_work // min_work)
    if most < 2:
        return 1
    return max(1, min(most, usable_cpus() // blas_threads()))


def blocks(items: int, parts: int) -> list[range]:
    """range(items) cut into ``parts`` contiguous blocks, in order, whose
    sizes differ by at most one."""
    return [range(items * k // parts, items * (k + 1) // parts) for k in range(parts)]


def _send_result(fn: Callable[[range], object], block: range, conn) -> None:
    """Child side of map_blocks: send ("ok", fn(block)) or ("error", exc)."""
    try:
        result = ("ok", fn(block))
    except Exception as exc:
        result = ("error", exc)
    with conn:
        conn.send(result)


def map_blocks(fn: Callable[[range], object], parts: list[range], doing: Callable[[range], str]) -> list:
    """[fn(block) for block in parts], the first in this process and each
    other in a forked child that inherits fn's inputs and pipes back only its
    result.  A child's exception re-raises here, and a child that ends
    without a result raises RuntimeError naming the process by
    ``doing(block)``; on any failure the children are killed.  Every child
    is joined and every pipe closed before return."""
    if len(parts) == 1:
        return [fn(parts[0])]
    # Imported here, so that CLI commands that never split (enroll, verify,
    # revoke) do not pay for it.
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    procs, pipes = [], []
    try:
        for block in parts[1:]:
            recv, send = ctx.Pipe(duplex=False)
            pipes.append(recv)
            proc = ctx.Process(target=_send_result, args=(fn, block, send))
            try:
                proc.start()
            finally:
                send.close()
            procs.append(proc)
        results = [fn(parts[0])]
        for recv, block in zip(pipes, parts[1:]):
            try:
                status, value = recv.recv()
            except EOFError:
                raise RuntimeError(f"the process {doing(block)} ended without a result") from None
            if status == "error":
                raise value
            results.append(value)
        return results
    except BaseException:
        # SIGKILL, not SIGTERM: a child may have inherited a SIGTERM handler.
        for proc in procs:
            proc.kill()
        raise
    finally:
        for proc in procs:
            proc.join()
            proc.close()
        for recv in pipes:
            recv.close()
