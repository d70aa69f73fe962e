"""``run_box_suite`` over forked workers: the same report as in one process.

The worker count is the usable CPU count, and no option changes it, so these
tests substitute ``verification._worker_count`` and shrink
``verification.CHUNK_MASKS`` to split small boxes into several chunks.  The
workers check chunks while this process walks the subset table, so some
tests slow the walk down to make the workers wait for it.  The tests that
bound how long a call may take fail at that bound, from a ``SIGALRM`` timer
in this process, instead of waiting for a call that never returns; a watchdog
thread would make ``_worker_count`` return 1 and run the box in one process.
"""

from __future__ import annotations

import concurrent.futures.process
import contextlib
import functools
import multiprocessing
import os
import signal
import threading
import time

import pytest

from supergrid import bitboard, verification
from supergrid.cli import run_cli
from supergrid.errors import SizeBoundExceeded, SupergridError

import reference_verification as ref

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


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("chunk", [64, 1])
@pytest.mark.parametrize("width,height", [(3, 3), (4, 3), (2, 6), (4, 4)])
def test_every_chunk_sweeps_as_the_per_mask_reference(monkeypatch, width, height, chunk, workers):
    # The reference tests every mask for linear convexity; the sweep reads the
    # box's generated list.  At one or 64 masks a chunk, some chunks hold no
    # linearly convex mask.
    sweep, convex_free = verification._sweep_masks, multiprocessing.get_context("fork").Value("q", 0)
    monkeypatch.setattr(verification, "_worker_count", lambda: 1)
    monkeypatch.setattr(verification, "_sweep_masks", ref.sweep_masks)
    expected = verification.run_box_suite(width, height)

    def checked_sweep(box, table, oracle_limit, masks):
        report = sweep(box, table, oracle_limit, masks)
        assert report == ref.sweep_masks(box, table, oracle_limit, masks), masks
        if masks and not report.linear_convex:
            with convex_free.get_lock():
                convex_free.value += 1
        return report

    monkeypatch.setattr(verification, "_sweep_masks", checked_sweep)
    monkeypatch.setattr(verification, "CHUNK_MASKS", chunk)
    monkeypatch.setattr(verification, "_worker_count", lambda: workers)
    assert verification.run_box_suite(width, height) == expected
    assert convex_free.value > 0
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


@contextlib.contextmanager
def _within(seconds: float):
    """Fail the test, and end every forked child, if the block runs ``seconds`` or more."""
    def expire(signum, frame):
        for child in multiprocessing.active_children():
            child.terminate()
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _slow_walk(monkeypatch, seconds: float, fail_at: int | None = None) -> None:
    """Sleep ``seconds`` before filling each chunk, and raise instead at mask ``fail_at``."""
    fill = bitboard.Box.fill_two_connected

    def slow_fill(box, table, masks):
        time.sleep(seconds)
        if masks.start == fail_at:
            raise SizeBoundExceeded(f"stub walk failed at mask {fail_at}")
        fill(box, table, masks)

    monkeypatch.setattr(bitboard.Box, "fill_two_connected", slow_fill)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("width,height", [(4, 3), (2, 6), (3, 4)])
def test_workers_that_outrun_the_walk_wait_for_it(monkeypatch, in_process, width, height,
                                                   workers):
    # The walk sleeps 0.1 s a chunk and a chunk's checks take milliseconds, so
    # every worker waits for the walk, and with three processes one draws
    # past the last chunk while another still waits for it.
    expected = in_process(width, height)
    _chunked(monkeypatch, width, height, workers)
    _slow_walk(monkeypatch, 0.1)
    assert verification.run_box_suite(width, height) == expected
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3])
def test_every_process_sweeps_a_walked_chunk(monkeypatch, in_process, workers):
    # In whichever process sweeps a chunk, the chunk's table bytes are final.
    expected, sweep, parent = bitboard.box(4, 3).two_connected_sweep(), verification._sweep_masks, os.getpid()
    swept_in_workers = multiprocessing.get_context("fork").Value("q", 0)

    def checked_sweep(box, table, oracle_limit, masks):
        assert table[masks.start:masks.stop] == expected[masks.start:masks.stop], masks
        if masks and os.getpid() != parent:
            with swept_in_workers.get_lock():
                swept_in_workers.value += 1
        return sweep(box, table, oracle_limit, masks)

    monkeypatch.setattr(verification, "_sweep_masks", checked_sweep)
    _chunked(monkeypatch, 4, 3, workers)
    _slow_walk(monkeypatch, 0.05)
    assert verification.run_box_suite(4, 3) == in_process(4, 3)
    assert swept_in_workers.value > 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("chunk", [0, 3])
def test_an_exception_in_the_walk_stops_every_worker(monkeypatch, capsys, workers, chunk):
    # The workers are waiting for the walk's chunk when it raises, and only
    # the stop signal releases them.
    _chunked(monkeypatch, 4, 3, workers)
    _slow_walk(monkeypatch, 0.1, chunk * verification.CHUNK_MASKS)
    message = f"stub walk failed at mask {chunk * verification.CHUNK_MASKS}"
    start = time.perf_counter()
    with _within(30), pytest.raises(SizeBoundExceeded, match=f"^{message}$"):
        verification.run_box_suite(4, 3)
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []
    assert run_cli(["verify", "--box", "4x3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert multiprocessing.active_children() == []


def test_an_exception_in_a_worker_stops_the_walk(monkeypatch):
    # Six chunks each walked in 1 s: a walk that went on after a worker
    # raised at its first chunk would hold the caller for about 6 s.
    parent = os.getpid()

    def oracle(neighbours, mask, bound):
        if os.getpid() != parent:
            raise SizeBoundExceeded("stub bound hit in a worker")

    monkeypatch.setattr(verification, "brute_force_hamiltonian_mask", oracle)
    _chunked(monkeypatch, 4, 3, 2)
    _slow_walk(monkeypatch, 1.0)
    start = time.perf_counter()
    with _within(4), pytest.raises(SizeBoundExceeded, match="in a worker$"):
        verification.run_box_suite(4, 3)
    assert time.perf_counter() - start < 4
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
    with _within(30), pytest.raises(SizeBoundExceeded):
        verification.run_box_suite(4, 3)
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def test_a_dead_worker_is_an_error_line(monkeypatch, capsys):
    # A forked worker that exits without reporting, as one the kernel kills
    # for memory would, at its first oracle call; this process waits 0.2 s at
    # its own first call so that the worker gets a chunk.
    oracle, parent, waited = verification.brute_force_hamiltonian_mask, os.getpid(), []

    def dying_oracle(neighbours, mask, bound):
        if os.getpid() != parent:
            os._exit(1)
        if not waited:
            waited.append(mask)
            time.sleep(0.2)
        return oracle(neighbours, mask, bound)

    monkeypatch.setattr(verification, "brute_force_hamiltonian_mask", dying_oracle)
    monkeypatch.setattr(verification, "CHUNK_MASKS", 64)
    monkeypatch.setattr(verification, "_worker_count", lambda: 2)
    message = "a verify worker exited before it reported its chunks"
    with pytest.raises(SupergridError, match=f"^{message}$"):
        verification.run_box_suite(4, 3)
    assert multiprocessing.active_children() == []
    waited.clear()
    assert run_cli(["verify", "--box", "4x3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert multiprocessing.active_children() == []


def test_one_chunk_runs_in_process(monkeypatch):
    # The 3x3 box is one chunk: with any worker count it forks nothing.
    assert verification._mask_chunks(1 << 9) == [range(1 << 9)]
    monkeypatch.setattr(verification, "_worker_count", lambda: 8)
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", None)
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
