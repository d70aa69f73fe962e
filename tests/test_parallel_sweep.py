"""``run_box_suite`` over forked workers: the same report as in one process.

The worker count is the usable CPU count, and no option changes it, so these
tests substitute ``verification._worker_count`` and shrink
``verification.CHUNK_MASKS`` to split small boxes into several chunks.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
import time

import pytest

from supergrid import verification
from supergrid.cli import run_cli
from supergrid.errors import SizeBoundExceeded

BOXES = ([(w, h) for w in range(1, 5) for h in range(1, 5)]
         + [(5, 3), (3, 5), (2, 6)] + [(1, n) for n in range(5, 9)])
WORKERS = (2, 3, 1000)  # 1000 is more workers than any box here has chunks


def _chunked(monkeypatch, width: int, height: int, workers: int) -> None:
    """About six chunks for the box, the last one shorter, over ``workers`` workers."""
    monkeypatch.setattr(verification, "CHUNK_MASKS", max(1, (1 << width * height) // 5 - 1))
    monkeypatch.setattr(verification, "_worker_count", lambda: workers)


@functools.cache
def _in_process(width: int, height: int) -> verification.SuiteReport:
    return verification.run_box_suite(width, height)


@pytest.fixture
def in_process(monkeypatch):
    monkeypatch.setattr(verification, "_worker_count", lambda: 1)
    return _in_process


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("width,height", BOXES)
def test_merged_report_equals_in_process_report(monkeypatch, in_process, width, height, workers):
    expected = in_process(width, height)
    _chunked(monkeypatch, width, height, workers)
    assert verification.run_box_suite(width, height) == expected
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("width,height", [(4, 3), (3, 4), (4, 4)])
def test_violations_of_every_chunk_are_merged_in_mask_order(monkeypatch, width, height, workers):
    # An oracle that never finds a cycle disagrees on every solved mask, so
    # every chunk holding strict masks contributes to one ascending list.
    monkeypatch.setattr(verification, "brute_force_hamiltonian_mask", lambda *a: None)
    monkeypatch.setattr(verification, "_worker_count", lambda: 1)
    cells = width * height  # every mask within the oracle limit
    expected = verification.run_box_suite(width, height, cells)
    _chunked(monkeypatch, width, height, workers)
    report = verification.run_box_suite(width, height, cells)
    assert report == expected
    assert report.oracle_mismatches == sorted(report.oracle_mismatches)
    assert len(report.oracle_mismatches) == report.strict_instances > 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("where", ["parent", "worker"])
def test_worker_exception_reaches_the_caller(monkeypatch, capsys, where):
    # Workers take chunks as they come, so the stub raises in this process or
    # in a forked worker, whichever it is told, and the other side waits
    # 0.2 s at its first call so that the failing side gets a chunk.
    oracle, parent, waited = verification.brute_force_hamiltonian_mask, os.getpid(), []

    def failing_oracle(neighbours, mask, bound):
        if (os.getpid() == parent) == (where == "parent"):
            raise SizeBoundExceeded(f"stub bound hit in the {where}")
        if not waited:
            waited.append(mask)
            time.sleep(0.2)
        return oracle(neighbours, mask, bound)

    monkeypatch.setattr(verification, "brute_force_hamiltonian_mask", failing_oracle)
    monkeypatch.setattr(verification, "CHUNK_MASKS", 64)
    monkeypatch.setattr(verification, "_worker_count", lambda: 2)
    with pytest.raises(SizeBoundExceeded, match=f"in the {where}$"):
        verification.run_box_suite(4, 3)
    assert multiprocessing.active_children() == []
    waited.clear()
    assert run_cli(["verify", "--box", "4x3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: stub bound hit in the {where}\n"
    assert multiprocessing.active_children() == []


def test_an_exception_here_stops_the_forked_workers(monkeypatch):
    # A forked worker's oracle takes 0.05 s a call, so a worker left to sweep
    # the rest of the box (thousands of calls) would hold the caller for minutes.
    parent = os.getpid()

    def oracle(neighbours, mask, bound):
        if os.getpid() == parent:
            raise SizeBoundExceeded("stub bound hit in the parent")
        time.sleep(0.05)

    monkeypatch.setattr(verification, "brute_force_hamiltonian_mask", oracle)
    monkeypatch.setattr(verification, "CHUNK_MASKS", 64)
    monkeypatch.setattr(verification, "_worker_count", lambda: 2)
    start = time.perf_counter()
    with pytest.raises(SizeBoundExceeded):
        verification.run_box_suite(4, 3)
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def test_one_chunk_runs_in_process(monkeypatch):
    # The 3x3 box is one chunk: with any worker count it forks nothing.
    assert verification._mask_chunks(1 << 9) == [range(1 << 9)]
    monkeypatch.setattr(verification, "_worker_count", lambda: 8)
    monkeypatch.setattr(verification, "_in_workers", None)
    assert verification.run_box_suite(3, 3).strict_instances == 112


def test_mask_chunks_cover_the_masks_in_order(monkeypatch):
    monkeypatch.setattr(verification, "CHUNK_MASKS", 3)
    assert verification._mask_chunks(8) == [range(0, 3), range(3, 6), range(6, 8)]
    assert verification._mask_chunks(6) == [range(0, 3), range(3, 6)]


def test_worker_count_is_the_usable_cpus_or_one_without_fork(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert verification._worker_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert verification._worker_count() == (6 if hasattr(os, "fork") else 1)
    monkeypatch.delattr(os, "fork", raising=False)
    assert verification._worker_count() == 1


def test_no_workers_while_other_threads_run():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert verification._worker_count() == 1
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()
