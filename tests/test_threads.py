"""Independent work runs on threads: the same estimates whatever the thread count.

`engine._THREADS` is the number of threads that `engine._ordered_map`
calls, nested ones included, may keep busy at once; the tests set it to 1,
2 and 8 (and 3 for the budget itself). The 8-thread runs also switch
threads as often as the interpreter allows, to shake out races on shared
state.
"""
import contextvars
import faulthandler
import json
import sys
import threading
import time

import numpy as np
import pytest

from margbayes import (
    ConstraintSet,
    ContingencyTable,
    EpsilonSchedule,
    ModelEval,
    ModelSpec,
    PriorSpec,
    RunSettings,
    StratifiedTable,
    TuningError,
    bayes_factor,
    link_for,
    load_fixture,
    make_density,
    positive_association,
    replicate_bf,
    tune_alpha,
)
from margbayes import cancel, engine
from margbayes import fit as fitmod
from margbayes.engine import substream
from margbayes.hypotheses import model_from_dict

from oracles import posterior_summary_reference
from test_engine import posterior_cases, record_fits, table_2x2

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


TAG = contextvars.ContextVar("test_threads_tag", default="unset")


@pytest.mark.parametrize("n", (1, 2, 3, 8))
def test_nested_maps_share_one_thread_budget(monkeypatch, n):
    lock = threading.Lock()
    running = peak = 0
    seen_tags = set()

    def leaf(x):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
            seen_tags.add(TAG.get())
        time.sleep(0.001 * (x % 3))
        with lock:
            running -= 1
        return x

    def middle(x):
        return sum(engine._ordered_map(leaf, range(4 * x, 4 * x + 4)))

    def outer(x):
        return engine._ordered_map(middle, range(3 * x, 3 * x + 3))

    def run():
        TAG.set("caller")
        return engine._ordered_map(outer, range(5))

    out = on_threads(monkeypatch, n, lambda: contextvars.copy_context().run(run))
    assert out == [[sum(range(4 * m, 4 * m + 4)) for m in range(3 * x, 3 * x + 3)]
                   for x in range(5)]
    assert 1 <= peak <= n
    assert seen_tags == {"caller"}
    assert engine._started == 0                 # every place handed back


@pytest.mark.parametrize("n", (1, 2, 3, 8))
def test_inner_maps_run_inline_when_budget_is_spent(monkeypatch, n):
    # n outer items meet at a barrier before and after their inner maps, so
    # each of n threads holds one, and all of the budget is in use while
    # any inner map runs
    barrier = threading.Barrier(n, timeout=60)
    inner_threads = {}

    def inner(x):
        return threading.get_ident()

    def outer(x):
        barrier.wait()
        inner_threads[x] = (threading.get_ident(), engine._ordered_map(inner, range(6)))
        barrier.wait()
        return x

    assert on_threads(monkeypatch, n, lambda: engine._ordered_map(outer, range(n))) \
        == list(range(n))
    assert len({caller for caller, _ in inner_threads.values()}) == n
    for caller, idents in inner_threads.values():
        assert idents == [caller] * 6


@pytest.mark.parametrize("n", (3, 8))
def test_items_after_a_failure_stop_at_their_next_check(monkeypatch, n):
    # item 1 fails while items 0 and 2 run. Item 2 and the inner map it runs
    # stop at their next check; item 0 runs to its end, as a plain loop
    # would have run it before item 1 started.
    barrier = threading.Barrier(3, timeout=60)
    item2_stopped = threading.Event()
    ends = {}

    def spin(x):
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            cancel.check()
            time.sleep(0.001)
        return "not stopped"

    def item(x):
        barrier.wait()
        if x == 1:
            raise ValueError(1)
        if x == 2:
            try:
                ends[2] = engine._ordered_map(spin, range(2))
            except cancel.Cancelled:
                item2_stopped.set()
                raise
        else:
            ends[0] = item2_stopped.wait(30)
            cancel.check()
        return x

    with pytest.raises(ValueError) as err:
        on_threads(monkeypatch, n, lambda: engine._ordered_map(item, range(3)))
    assert err.value.args == (1,)
    assert ends == {0: True}
    assert engine._started == 0


def test_chain_parts_stop_once_one_fails(monkeypatch):
    # η3 within 0.1 of 0 and η1 = η2 = 0: no draw can satisfy it. The prior
    # part fails its tuning within a second; the posterior part, built
    # beside it, would go on for about 100 s of failing centring fits if
    # it ran to its end.
    cs = ConstraintSet(np.array([[0.0, 0.0, 1.0]]),
                       np.vstack([np.eye(3)[:2], -np.eye(3)[:2]]), np.array([0.1]), 3)
    model = ModelSpec("no_interior", ("local", "local"), cs)
    settings = RunSettings(n_draws=4_000, pilot_n=2_000, chunk=2048, alpha_grid=(1.0, 5.0),
                           tune_extend_max_multiplier=20.0)
    # the interior check would fail both parts before any fit; passed here,
    # the posterior part's slow fits start and must be stopped
    monkeypatch.setattr(engine, "_has_interior", lambda *a: True)
    start = time.monotonic()
    with pytest.raises(TuningError):
        on_threads(monkeypatch, 2, lambda: bayes_factor(
            model, table_2x2(), PriorSpec.flat(4, 1, 1.0), settings, seed=16,
            schedule=EpsilonSchedule(epsilon_start=0.1, b=0.5, max_stages=2)))
    assert time.monotonic() - start < 30


class GivenUp:
    failed_at = 0                # an enclosing map whose item 0 has failed


@pytest.mark.parametrize("loop", ["fit", "direct", "importance"])
def test_long_loops_stop_once_given_up(loop):
    ev = ModelEval(model_tp2_3x3(), (3, 3), 1)
    alpha = np.ones((1, 9))
    run = {
        "fit": lambda: fitmod.constrained_mle(table_3x3(), model_tp2_3x3()),
        "direct": lambda: engine._direct_stream(ev, alpha, 1000, substream(1, 0), 100),
        "importance": lambda: engine._importance_stream(
            ev, alpha, make_density(np.full((1, 9), 1 / 9), alpha, 5.0), 1000,
            substream(1, 0), 100),
    }[loop]
    run()                                    # outside any map, check() does nothing
    scope = cancel.SCOPE.set(((GivenUp(), 1),))
    try:
        with pytest.raises(cancel.Cancelled):
            run()
    finally:
        cancel.SCOPE.reset(scope)


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
    assert est.route == "importance/importance"
    assert outs[1] == outs[0] and outs[2] == outs[0]


def table_3x3_two_strata():
    return StratifiedTable(("a", "b"), (
        ContingencyTable((3, 3), np.array([20.0, 9.0, 4.0, 8.0, 15.0, 9.0, 3.0, 10.0, 22.0])),
        ContingencyTable((3, 3), np.array([12.0, 7.0, 6.0, 9.0, 11.0, 8.0, 5.0, 9.0, 14.0]))))


def test_replicate_bf_direct_route_same_at_any_thread_count(monkeypatch):
    # replicates are the only fan-out on the direct route
    table = load_fixture("father_son")
    model = model_from_dict({"name": "so", "logits": "global",
                             "constraints": [{"kind": "stochastic_order", "direction": "ge"}]},
                            table.dims, table.s)
    settings = RunSettings(n_draws=6_000, pilot_n=3_000, chunk=4096)
    outs = []
    for n in THREAD_COUNTS:
        est = on_threads(monkeypatch, n, lambda: replicate_bf(
            model, table, PriorSpec.flat(table.r, table.s, 1.0), settings, B=3, seed=15))
        outs.append(as_json(est.to_dict()))
    assert est.route == "direct/direct"
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_replicate_bf_stratum_split_same_at_any_thread_count(monkeypatch):
    # replicates, strata and tuning probes, nested three deep
    table = table_3x3_two_strata()
    model = model_from_dict({"name": "tp2", "logits": "local", "constraints": [{"kind": "tp2"}]},
                            table.dims, table.s)
    assert ModelEval(model, table.dims, table.s).stratum_split() is not None
    settings = RunSettings(n_draws=2_000, pilot_n=2_000, chunk=4096, direct_threshold=1.1,
                           alpha_grid=(1.0, 5.0, 20.0))
    outs = []
    for n in THREAD_COUNTS:
        est = on_threads(monkeypatch, n, lambda: replicate_bf(
            model, table, PriorSpec.flat(table.r, table.s, 1.0), settings, B=3, seed=16))
        outs.append(as_json(est.to_dict()))
    assert est.route == "importance/importance"
    assert outs[1] == outs[0] and outs[2] == outs[0]


@pytest.mark.parametrize("case", posterior_cases(), ids=lambda c: c[0])
def test_posterior_summary_same_at_any_thread_count(monkeypatch, case):
    # one stratum per unit; one stratum runs inline whatever the budget
    _, model, table, prior, sizes = case
    want = as_json(posterior_summary_reference(model, table, prior, **sizes))
    for n in THREAD_COUNTS:
        s = on_threads(monkeypatch, n, lambda: engine.posterior_draws_under_model(
            model, table, prior, **sizes))
        assert as_json(s.to_dict()) == want


def test_concurrent_replicates_fit_each_centre_once(monkeypatch):
    # concurrent replicates miss the same keys together; each is fitted once
    table = table_3x3_two_strata()
    model = model_from_dict({"name": "tp2", "logits": "local", "constraints": [{"kind": "tp2"}]},
                            table.dims, table.s)
    settings = RunSettings(n_draws=2_000, pilot_n=2_000, chunk=4096, direct_threshold=1.1,
                           ess_floor=1e9, alpha_grid=(5.0, 50.0))
    calls = record_fits(monkeypatch)
    fits = {}
    for n in (1, 8):
        del calls[:]
        on_threads(monkeypatch, n, lambda: replicate_bf(
            model, table, PriorSpec.flat(table.r, table.s, 1.0), settings, B=3, seed=17))
        fits[n] = sorted(calls)
    assert fits[1] and fits[8] == fits[1]
    assert len(set(fits[1])) == len(fits[1])


def waiting_on_a_future(thread) -> bool:
    """True once `thread` waits on the Future of another thread's fit."""
    frame = sys._current_frames().get(thread.ident)
    while frame is not None:
        if frame.f_code.co_name == "result" and "futures" in frame.f_code.co_filename:
            return True
        frame = frame.f_back
    return False


def test_failed_centring_fit_reaches_every_waiter():
    memo = engine._CentreMemo()
    started = threading.Event()
    release = threading.Event()
    fits = []
    errors = []

    def failing_fit():
        fits.append(threading.get_ident())
        started.set()
        release.wait(60)
        raise fitmod.FitError("no interior point")

    def caller():
        try:
            memo.get("key", failing_fit)
        except fitmod.FitError as err:
            errors.append(err)

    owner = threading.Thread(target=caller)
    owner.start()
    assert started.wait(60)
    waiters = [threading.Thread(target=caller) for _ in range(3)]
    for t in waiters:
        t.start()
    deadline = time.monotonic() + 60
    while not all(waiting_on_a_future(t) for t in waiters):
        assert time.monotonic() < deadline
        time.sleep(0.001)
    release.set()
    for t in [owner] + waiters:
        t.join(60)
        assert not t.is_alive()
    assert len(fits) == 1 and len(errors) == 4
    # the failure is not kept: the next caller fits again
    assert memo.get("key", lambda: "fitted") == "fitted"


def test_centring_fit_given_up_is_taken_over_by_a_waiter():
    # a fit stopped because its caller was given up says nothing about the
    # problem: a waiter that is still wanted fits it instead
    memo = engine._CentreMemo()
    started = threading.Event()
    release = threading.Event()
    fits = []
    ends = []

    def given_up_fit():
        fits.append("owner")
        started.set()
        release.wait(60)
        raise cancel.Cancelled

    def owner():
        try:
            memo.get("key", given_up_fit)
        except cancel.Cancelled:
            ends.append("given up")

    def waiter():
        ends.append(memo.get("key", lambda: fits.append("waiter") or "fitted"))

    first = threading.Thread(target=owner)
    first.start()
    assert started.wait(60)
    second = threading.Thread(target=waiter)
    second.start()
    deadline = time.monotonic() + 60
    while not waiting_on_a_future(second):
        assert time.monotonic() < deadline
        time.sleep(0.001)
    release.set()
    for t in (first, second):
        t.join(60)
        assert not t.is_alive()
    assert fits == ["owner", "waiter"]
    assert sorted(ends) == ["fitted", "given up"]
    assert memo.get("key", lambda: "again") == "fitted"
