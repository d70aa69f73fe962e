"""``run_box_suite`` over forked workers: the same report as in one process.

The worker count is the usable CPU count, and no option changes it, so these
tests substitute ``verification._worker_count`` and lower
``verification.CHUNK_BITS`` to split small boxes into several chunks.  Every
process runs one draw loop: it draws chunks in level order, waits until the
chunks a chunk needs are filled, then fills the chunk's table bytes and
checks it.  Some tests slow down this process's fills, so that the forked
workers wait for the chunks it fills.  The tests that bound how long a call
may take fail at that bound, from a ``SIGALRM`` timer in this process,
instead of waiting for a call that never returns; a watchdog thread would
make ``_worker_count`` return 1 and run the box in one process.
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
    """Eight chunks for the box (two for a box of one cell), over ``workers`` workers."""
    monkeypatch.setattr(verification, "CHUNK_BITS", max(0, width * height - 3))
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
    monkeypatch.setattr(verification, "CHUNK_BITS", chunk.bit_length() - 1)
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


def _slow_fill(monkeypatch, seconds: float, fail_at: int | None = None) -> None:
    """Sleep ``seconds`` before each fill in this process, and raise at mask ``fail_at`` in any.

    The forked workers' fills do not sleep, so they outrun this process and
    draw chunks that need the ones it is still filling.
    """
    fill, parent = bitboard.Box.fill_two_connected, os.getpid()

    def slow_fill(box, table, masks):
        if os.getpid() == parent:
            time.sleep(seconds)
        if masks.start == fail_at:
            raise SizeBoundExceeded(f"stub fill failed at mask {fail_at}")
        fill(box, table, masks)

    monkeypatch.setattr(bitboard.Box, "fill_two_connected", slow_fill)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("width,height", [(4, 3), (2, 6), (3, 4)])
def test_workers_that_outrun_the_walk_wait_for_it(monkeypatch, in_process, width, height,
                                                   workers):
    # This process sleeps 0.1 s a fill and a chunk's checks take
    # milliseconds, so the workers wait for the chunks it fills, and with
    # three processes one draws past the last chunk while another still waits.
    expected = in_process(width, height)
    _chunked(monkeypatch, width, height, workers)
    _slow_fill(monkeypatch, 0.1)
    assert verification.run_box_suite(width, height) == expected
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3])
def test_every_process_sweeps_a_walked_chunk(monkeypatch, in_process, workers):
    # In whichever process sweeps a chunk, the chunk's table bytes are final,
    # and the forked workers fill chunks too: the walk is split.
    expected, sweep, parent = bitboard.box(4, 3).two_connected_sweep(), verification._sweep_masks, os.getpid()
    context = multiprocessing.get_context("fork")
    swept_in_workers, filled_in_workers = context.Value("q", 0), context.Value("q", 0)

    def checked_sweep(box, table, oracle_limit, masks):
        assert table[masks.start:masks.stop] == expected[masks.start:masks.stop], masks
        if masks and os.getpid() != parent:
            with swept_in_workers.get_lock():
                swept_in_workers.value += 1
        return sweep(box, table, oracle_limit, masks)

    monkeypatch.setattr(verification, "_sweep_masks", checked_sweep)
    _chunked(monkeypatch, 4, 3, workers)
    _slow_fill(monkeypatch, 0.05)
    fill = bitboard.Box.fill_two_connected

    def counted_fill(box, table, masks):
        fill(box, table, masks)
        if os.getpid() != parent:
            with filled_in_workers.get_lock():
                filled_in_workers.value += 1

    monkeypatch.setattr(bitboard.Box, "fill_two_connected", counted_fill)
    assert verification.run_box_suite(4, 3) == in_process(4, 3)
    assert swept_in_workers.value > 0
    assert filled_in_workers.value > 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("chunk", [0, 3])
def test_an_exception_in_the_walk_stops_every_worker(monkeypatch, capsys, workers, chunk):
    # The other processes wait for the chunk when its fill raises (every
    # chunk waits on chunk 0, directly or not, and chunk 7 needs chunk 3), and
    # only the stop flag releases them.
    _chunked(monkeypatch, 4, 3, workers)
    _slow_fill(monkeypatch, 0.1, chunk << verification.CHUNK_BITS)
    message = f"stub fill failed at mask {chunk << verification.CHUNK_BITS}"
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
    # This process fills each chunk after 1 s: had it gone on drawing after
    # the worker raised at its first chunk, it would fill about five more.
    parent = os.getpid()

    def oracle(neighbours, mask, bound):
        if os.getpid() != parent:
            raise SizeBoundExceeded("stub bound hit in a worker")

    monkeypatch.setattr(verification, "brute_force_hamiltonian_mask", oracle)
    _chunked(monkeypatch, 4, 3, 2)
    _slow_fill(monkeypatch, 1.0)
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
    monkeypatch.setattr(verification, "CHUNK_BITS", 6)
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
    monkeypatch.setattr(verification, "CHUNK_BITS", 6)
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
    monkeypatch.setattr(verification, "CHUNK_BITS", 6)
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


def test_a_worker_that_dies_while_filling_releases_the_caller(monkeypatch, capsys):
    # A forked worker exits at its first fill, leaving its chunk unfilled,
    # and this process goes on to a chunk that needs it; only the stop flag,
    # set as the worker's future ends, releases the wait.  This process waits
    # 0.2 s at its own first fill, so that the worker draws a chunk.
    fill, parent, waited = bitboard.Box.fill_two_connected, os.getpid(), []

    def dying_fill(box, table, masks):
        if os.getpid() != parent:
            os._exit(1)
        if not waited:
            waited.append(masks)
            time.sleep(0.2)
        fill(box, table, masks)

    monkeypatch.setattr(bitboard.Box, "fill_two_connected", dying_fill)
    monkeypatch.setattr(verification, "CHUNK_BITS", 6)
    monkeypatch.setattr(verification, "_worker_count", lambda: 2)
    message = "a verify worker exited before it reported its chunks"
    with _within(30):
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
    # Level order: by the popcount of the chunk's index, then by the index.
    monkeypatch.setattr(verification, "CHUNK_BITS", 1)
    assert verification._mask_chunks(16) == [range(0, 2), range(2, 4), range(4, 6), range(8, 10),
                                             range(6, 8), range(10, 12), range(12, 14),
                                             range(14, 16)]
    assert verification._mask_chunks(2) == [range(0, 2)]
    assert verification._mask_chunks(1) == [range(0, 1)]


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
