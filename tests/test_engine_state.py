"""The extension engine's internal state, checked after every step.

The differential gates compare what the engine returns; a state that is
wrong but not yet used (a ready vertex the lazy heap has lost, a label out
of order that no comparison has met) passes them until some later input
exercises it.  Here the state itself is checked against brute force after
every step: every frontier vertex with an insertable edge must have a heap
entry (stale entries are allowed), labels must increase along the ring, and
the frontier must match a scan of every vertex id.
"""

from __future__ import annotations

import pytest

from supergrid import ExtensionStuck
from supergrid.bitboard import mask_to_graph
from supergrid.grid import vertex_ids
from supergrid.hamiltonian import _Engine, _seed_ids

from conftest import block, disc
from test_engine_differential import RARE_PATH_MASKS


def assert_engine_state(engine: _Engine) -> None:
    on, label, succ, pred = engine.on, engine.label, engine.succ, engine.pred
    ring, v = [], engine.head
    for _ in range(engine.k):
        ring.append(v)
        v = succ[v]
    assert v == engine.head and [pred[succ[v]] for v in ring] == ring
    assert sorted(ring) == [w for w in range(len(on)) if on[w]]
    labels = [label[v] for v in ring]
    assert 0 <= labels[0] and labels[-1] < engine.top
    assert all(map(int.__lt__, labels, labels[1:]))
    frontier = [w for w, nb in enumerate(engine.nbrs) if not on[w] and any(map(on.__getitem__, nb))]
    assert engine._frontier() == (frontier[::-1] if engine.reverse else frontier)
    queued = {-e for e in engine.heap} if engine.reverse else set(engine.heap)
    assert [w for w in frontier if engine._tail(w) >= 0 and w not in queued] == []


def run_checked(g, reverse: bool) -> int:
    """Grow g's seed to the end (or a stuck step), checking the state after every step.

    Returns how many steps rewrote a label other than the attached vertex's.
    """
    table = vertex_ids(g)
    engine = _Engine(g, table, _seed_ids(table[1]), reverse)
    assert_engine_state(engine)
    relabels = 0
    while engine.k < len(g):
        before = list(engine.label)
        try:
            engine.step()
        except ExtensionStuck:
            break
        assert_engine_state(engine)
        relabels += sum(map(int.__ne__, before, engine.label)) > 1
    return relabels


def test_state_strict_4x4_both_orders(box_sweep):
    for mask in box_sweep.strict_masks:
        for reverse in (False, True):
            run_checked(mask_to_graph(mask, 4), reverse)


def test_state_through_rare_path_reloads():
    # Permissive solves that take claim rewires, CLAIM2 or the fallback: each
    # rewire reloads the engine from a Cycle, and some solves get stuck.
    for mask in RARE_PATH_MASKS:
        for reverse in (False, True):
            run_checked(mask_to_graph(mask, 4), reverse)


@pytest.mark.parametrize("reverse", [False, True])
def test_state_disc(reverse):
    g = disc(14.7, 0)
    assert len(g) == 677
    run_checked(g, reverse)


def test_state_thin_strip_relabels():
    # A 2-row strip makes the most label writes per step, so it is where a
    # relabel that loses order shows first.
    assert run_checked(block(2000, 2), False) > 0


def test_label_after_raises_on_labels_out_of_order():
    # The last ring vertex labelled top, which no relabel range may reach:
    # every level leaves it no gap before the end, and the bounded level loop
    # must raise instead of climbing for ever.
    g = block(3, 3)
    table = vertex_ids(g)
    engine = _Engine(g, table, _seed_ids(table[1]), False)
    engine.step()
    last = engine.pred[engine.head]
    engine.label[last] = engine.top
    with pytest.raises(RuntimeError, match="out of order"):
        engine._label_after(last)
