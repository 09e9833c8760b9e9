"""Tuning probes run on threads: the same estimates whatever the thread count.

`engine._THREADS` is the number of threads `engine._ordered_map` may use;
the tests set it to 1, 2 and 8. The 8-thread runs also switch threads as
often as the interpreter allows, to shake out races on shared state.
"""
import faulthandler
import json
import sys
import threading
import time

import numpy as np
import pytest

from margbayes import (
    ContingencyTable,
    EpsilonSchedule,
    ModelEval,
    ModelSpec,
    PriorSpec,
    RunSettings,
    StratifiedTable,
    link_for,
    load_fixture,
    make_density,
    positive_association,
    replicate_bf,
    tune_alpha,
)
from margbayes import engine
from margbayes.engine import substream
from margbayes.hypotheses import model_from_dict

THREAD_COUNTS = (1, 2, 8)


@pytest.fixture(autouse=True)
def time_bound():
    # a deadlocked pool would hang the suite: dump every stack and exit instead
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def on_threads(monkeypatch, n, fn):
    """fn() with engine._THREADS = n; at 8 threads with the shortest switch
    interval. Checks that no thread the engine started outlives the call."""
    monkeypatch.setattr(engine, "_THREADS", n)
    before = threading.active_count()
    old = sys.getswitchinterval()
    if n >= 8:
        sys.setswitchinterval(1e-6)
    try:
        return fn()
    finally:
        sys.setswitchinterval(old)
        assert threading.active_count() == before


def table_3x3():
    return StratifiedTable(("all",), (ContingencyTable((3, 3), np.array(
        [20.0, 9.0, 4.0, 8.0, 15.0, 9.0, 3.0, 10.0, 22.0])),))


def model_tp2_3x3():
    return ModelSpec("positive_association", ("local", "local"),
                     positive_association(link_for((3, 3), "local")))


def as_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# the ordered map
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", THREAD_COUNTS)
def test_ordered_map_keeps_input_order(monkeypatch, n):
    def slow_square(x):
        time.sleep(0.002 * (10 - x))       # early items finish last
        return x * x

    out = on_threads(monkeypatch, n, lambda: engine._ordered_map(slow_square, range(10)))
    assert out == [x * x for x in range(10)]


@pytest.mark.parametrize("n", THREAD_COUNTS)
def test_ordered_map_reraises_lowest_failing_item(monkeypatch, n):
    started = []

    def fail_at_3_and_5(x):
        started.append(x)
        if x == 3:
            time.sleep(0.02)             # with threads, item 5 fails first
        if x in (3, 5):
            raise ValueError(x)
        time.sleep(0.001)
        return x

    with pytest.raises(ValueError) as err:
        on_threads(monkeypatch, n, lambda: engine._ordered_map(fail_at_3_and_5, range(200)))
    assert err.value.args == (3,)
    # items are handed out in order, and none starts once a failure is
    # recorded: the run stops within a few items, far short of all 200
    assert sorted(started) == list(range(len(started)))
    assert len(started) < 100


@pytest.mark.parametrize("n, items", [(1, 5), (8, 1)])
def test_ordered_map_without_work_to_share_starts_no_thread(monkeypatch, n, items):
    monkeypatch.setattr(engine, "_THREADS", n)
    callers = set()

    def who(x):
        callers.add(threading.get_ident())
        return x

    assert engine._ordered_map(who, range(items)) == list(range(items))
    assert callers == {threading.get_ident()}


def test_model_eval_fills_restricted_cache_before_any_probe():
    ev = ModelEval(model_tp2_3x3(), (3, 3), 1)
    key = tuple(int(i) for i in ev.local_rows)
    assert key in ev.link._restricted_cache


# ---------------------------------------------------------------------------
# estimates at 1, 2 and 8 threads
# ---------------------------------------------------------------------------

def test_tune_alpha_same_at_any_thread_count(monkeypatch):
    ev = ModelEval(model_tp2_3x3(), (3, 3), 1)
    prior = PriorSpec.flat(9, 1, 1.0)
    center = np.full((1, 9), 1.0 / 9.0)
    settings = RunSettings(pilot_n=8_000, chunk=4096)
    outs = []
    for n in THREAD_COUNTS:
        g, diag = on_threads(monkeypatch, n, lambda: tune_alpha(
            ev, prior.concentration, center, settings, seed=11))
        outs.append((g.params.tobytes(), as_json(diag)))
    assert outs[1] == outs[0] and outs[2] == outs[0]

    # the grid entries are the probes a plain loop makes, in grid order
    probe_n = max(4000, settings.pilot_n // 4)
    loop = [engine._importance_stream(ev, prior.concentration,
                                      make_density(center, prior.concentration, m),
                                      probe_n, substream(11, "tune", i), settings.chunk)
            for i, m in enumerate(settings.alpha_grid)]
    assert [(r["multiplier"], r["ess"], r["log_value"]) for r in diag["grid"]][:len(loop)] \
        == [(m, e.ess, e.log_value) for m, e in zip(settings.alpha_grid, loop)]


def test_tune_alpha_probe_error_reaches_caller(monkeypatch):
    ev = ModelEval(model_tp2_3x3(), (3, 3), 1)
    prior = PriorSpec.flat(9, 1, 1.0)
    orig = engine._importance_stream

    def failing(ev_, target, g, *args):
        if g.multiplier == 5.0:
            raise FloatingPointError("probe failed")
        return orig(ev_, target, g, *args)

    monkeypatch.setattr(engine, "_importance_stream", failing)
    with pytest.raises(FloatingPointError, match="probe failed"):
        on_threads(monkeypatch, 2, lambda: tune_alpha(
            ev, prior.concentration, np.full((1, 9), 1.0 / 9.0),
            RunSettings(pilot_n=8_000, chunk=4096), seed=12))


def test_replicate_bf_importance_route_same_at_any_thread_count(monkeypatch):
    # direct_threshold above 1 sends both sides down the tuned importance route
    settings = RunSettings(n_draws=4_000, pilot_n=4_000, chunk=4096, direct_threshold=1.1)
    outs = []
    for n in THREAD_COUNTS:
        est = on_threads(monkeypatch, n, lambda: replicate_bf(
            model_tp2_3x3(), table_3x3(), PriorSpec.flat(9, 1, 1.0), settings,
            B=2, seed=13))
        outs.append(as_json(est.to_dict()))
    assert "importance" in outs[0]
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_replicate_bf_chain_route_same_at_any_thread_count(monkeypatch):
    table = load_fixture("alzheimer")
    model = model_from_dict({"name": "ci", "logits": "local",
                             "constraints": [{"kind": "independence", "epsilon": 0.1}]},
                            table.dims, table.s)
    # the short grid still reaches the geometric extension, and the retune
    # tunes again on a grid around the first multiplier
    settings = RunSettings(n_draws=2_000, pilot_n=1_000, chunk=4096, max_retunes=1,
                           alpha_grid=(0.5, 2.0, 5.0, 20.0, 50.0))
    sched = EpsilonSchedule(epsilon_start=0.1, b=0.25, max_stages=2)
    outs = []
    for n in THREAD_COUNTS:
        est = on_threads(monkeypatch, n, lambda: replicate_bf(
            model, table, PriorSpec.flat(table.r, table.s, 1.0), settings,
            B=1, seed=14, schedule=sched))
        outs.append(as_json(est.to_dict()))
    assert est.route == "about_equality"
    assert outs[1] == outs[0] and outs[2] == outs[0]
