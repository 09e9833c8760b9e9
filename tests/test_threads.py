"""Independent work runs on threads: the same estimates whatever the thread count.

`engine._THREADS` is the number of threads that one `engine._ordered_map`
call may keep busy; a map inside an item of a threaded map runs inline on
that item's thread. The tests set it to 1, 2 and 8 (and 3 for nested
maps). The 8-thread runs also switch threads as often as the interpreter
allows, to shake out races on shared state.
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
    ContingencyTable,
    EpsilonSchedule,
    ModelEval,
    ModelSpec,
    PriorSpec,
    RunSettings,
    StratifiedTable,
    link_for,
    load_fixture,
    positive_association,
    replicate_bf,
)
from margbayes import engine
from margbayes import fit as fitmod
from margbayes.engine import make_density, substream, tune_alpha
from margbayes.hypotheses import model_from_dict

from oracles import posterior_summary_reference
from test_engine import posterior_cases, record_fits, set_engine

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


def model_pqd_3x3():
    # global logits: rows not linear in log G, so a side that is not direct is tuned
    return ModelSpec("pqd", ("global", "global"),
                     positive_association(link_for((3, 3), "global")))


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
def test_nested_maps_keep_at_most_n_threads_busy(monkeypatch, n):
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


@pytest.mark.parametrize("items", (2, 3, 8))
def test_nested_map_runs_on_its_items_thread(monkeypatch, items):
    # each outer item holds its own thread (they meet at a barrier), and
    # with 8 threads allowed, 8 - items of them are idle: an inner map
    # still runs inline, on the thread of the item that calls it
    barrier = threading.Barrier(items, timeout=60)
    inner_threads = {}

    def inner(x):
        return threading.get_ident()

    def outer(x):
        barrier.wait()
        inner_threads[x] = (threading.get_ident(), engine._ordered_map(inner, range(6)))
        barrier.wait()
        return x

    assert on_threads(monkeypatch, 8, lambda: engine._ordered_map(outer, range(items))) \
        == list(range(items))
    assert len({caller for caller, _ in inner_threads.values()}) == items
    for caller, seen in inner_threads.values():
        assert seen == [caller] * 6

    # the caller is outside any map again: its next map fans out
    def meet(x):
        barrier.wait()
        return threading.get_ident()

    assert len(set(on_threads(monkeypatch, 8, lambda: engine._ordered_map(
        meet, range(items))))) == items


@pytest.mark.parametrize("n", (2, 8))
def test_map_inside_a_one_item_map_fans_out(monkeypatch, n):
    # a one-item map is a plain call, so the map inside it takes the
    # threads: its n items meet at a barrier, each on its own thread
    barrier = threading.Barrier(n, timeout=60)

    def inner(x):
        barrier.wait()
        return threading.get_ident()

    def outer(x):
        return threading.get_ident(), engine._ordered_map(inner, range(n))

    [(caller, idents)] = on_threads(monkeypatch, n, lambda: engine._ordered_map(outer, [0]))
    assert caller == threading.get_ident()
    assert len(set(idents)) == n


def left_the_map_loop(ident) -> bool:
    """True once thread `ident` is no longer in _ordered_map's worker loop:
    the failure it ran into is recorded."""
    frame = sys._current_frames().get(ident)
    while frame is not None:
        if frame.f_code.co_name == "work" and frame.f_code.co_filename == engine.__file__:
            return False
        frame = frame.f_back
    return True


@pytest.mark.parametrize("n", (3, 8))
def test_items_running_at_a_failure_finish_and_no_later_item_starts(monkeypatch, n):
    # items 0 to n - 1 start together and item 1 fails. The others, item 2
    # among them, run on past the recorded failure to their end, a chunked
    # draw loop included, and their results are dropped; none of the items
    # after them starts
    barrier = threading.Barrier(n, timeout=60)
    failed_on = []
    started, ended = [], []

    def item(x):
        started.append(x)
        barrier.wait()
        if x == 1:
            failed_on.append(threading.get_ident())
            raise ValueError(1)
        deadline = time.monotonic() + 60
        while not (failed_on and left_the_map_loop(failed_on[0])):
            assert time.monotonic() < deadline
            time.sleep(0.001)
        draws = list(engine._chunks(substream(1, x), np.ones((1, 4)), 8, 2))
        ended.append(x)
        return draws

    with pytest.raises(ValueError) as err:
        on_threads(monkeypatch, n, lambda: engine._ordered_map(item, range(n + 3)))
    assert err.value.args == (1,)
    assert sorted(started) == list(range(n))
    assert sorted(ended) == [x for x in range(n) if x != 1]


# ---------------------------------------------------------------------------
# estimates at 1, 2 and 8 threads
# ---------------------------------------------------------------------------

def test_tune_alpha_same_at_any_thread_count(monkeypatch):
    ev = ModelEval(model_tp2_3x3(), (3, 3), 1)
    prior = PriorSpec.flat(9, 1, 1.0)
    center = np.full((1, 9), 1.0 / 9.0)
    settings = RunSettings(pilot_n=8_000)
    outs = []
    for n in THREAD_COUNTS:
        params, diag = on_threads(monkeypatch, n, lambda: tune_alpha(
            ev, prior.concentration, center, settings, seed=11))
        outs.append((params.tobytes(), as_json(diag)))
    assert outs[1] == outs[0] and outs[2] == outs[0]

    # the grid entries are the probes a plain loop makes, in grid order
    probe_n = max(4000, settings.pilot_n // 4)
    loop = [engine._importance_stream(ev, prior.concentration,
                                      make_density(center, prior.concentration, m),
                                      probe_n, substream(11, "tune", i))
            for i, m in enumerate(engine.DEFAULT_ALPHA_GRID)]
    assert [(r["multiplier"], r["ess"], r["log_value"]) for r in diag["grid"]][:len(loop)] \
        == [(m, e.ess, e.log_value) for m, e in zip(engine.DEFAULT_ALPHA_GRID, loop)]


def test_tune_alpha_runs_every_probe_on_the_calling_thread(monkeypatch):
    ev = ModelEval(model_tp2_3x3(), (3, 3), 1)
    prior = PriorSpec.flat(9, 1, 1.0)
    center = np.full((1, 9), 1.0 / 9.0)
    orig = engine._importance_stream
    probes = []

    def recorded(*args):
        probes.append(threading.get_ident())
        return orig(*args)

    monkeypatch.setattr(engine, "_importance_stream", recorded)
    on_threads(monkeypatch, 8, lambda: tune_alpha(
        ev, prior.concentration, center, RunSettings(pilot_n=8_000), seed=11))
    assert probes == [threading.get_ident()] * len(probes)
    assert len(probes) >= len(engine.DEFAULT_ALPHA_GRID)


def test_tune_alpha_probe_error_reaches_caller(monkeypatch):
    ev = ModelEval(model_tp2_3x3(), (3, 3), 1)
    prior = PriorSpec.flat(9, 1, 1.0)
    center = np.full((1, 9), 1.0 / 9.0)
    orig = engine._importance_stream

    def failing(ev_, target, params, *args):
        if np.array_equal(params, make_density(center, target, 5.0)):
            raise FloatingPointError("probe failed")
        return orig(ev_, target, params, *args)

    monkeypatch.setattr(engine, "_importance_stream", failing)
    with pytest.raises(FloatingPointError, match="probe failed"):
        on_threads(monkeypatch, 2, lambda: tune_alpha(
            ev, prior.concentration, center, RunSettings(pilot_n=8_000), seed=12))


def test_replicate_bf_importance_route_same_at_any_thread_count(monkeypatch):
    # a routing threshold above 1 sends both sides of PQD down the tuned
    # importance route
    settings = RunSettings(n_draws=4_000, pilot_n=4_000)
    set_engine(monkeypatch, _DIRECT_THRESHOLD=1.1)
    outs = []
    for n in THREAD_COUNTS:
        est = on_threads(monkeypatch, n, lambda: replicate_bf(
            model_pqd_3x3(), table_3x3(), PriorSpec.flat(9, 1, 1.0), settings,
            B=2, seed=13))
        outs.append(as_json(est.to_dict()))
    assert est.route == "importance/importance"
    assert outs[1] == outs[0] and outs[2] == outs[0]


def chain_same_at_any_thread_count(monkeypatch, B):
    # alzheimer uniform association on global logits: equality rows not
    # linear in log G, so the chain runs, with parts per stratum
    table = load_fixture("alzheimer")
    model = model_from_dict({"name": "ua", "logits": "global",
                             "constraints": [{"kind": "uniform_association", "epsilon": 0.1}]},
                            table.dims, table.s)
    # the short grid still reaches the geometric extension, and the retune
    # tunes again on a grid around the first multiplier
    settings = RunSettings(n_draws=2_000, pilot_n=1_000)
    set_engine(monkeypatch, DEFAULT_ALPHA_GRID=(0.5, 2.0, 5.0, 20.0, 50.0))
    monkeypatch.setattr(engine, "_MAX_RETUNES", 1)
    sched = EpsilonSchedule(epsilon_start=0.1, b=0.25, max_stages=2)
    outs = []
    for n in THREAD_COUNTS:
        est = on_threads(monkeypatch, n, lambda: replicate_bf(
            model, table, PriorSpec.flat(table.r, table.s, 1.0), settings,
            B=B, seed=14, schedule=sched))
        outs.append(as_json(est.to_dict()))
    assert est.route == "importance/importance"
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_replicate_bf_chain_route_same_at_any_thread_count(monkeypatch):
    # one replicate: its parts fan out, and so do its retunes at each level
    chain_same_at_any_thread_count(monkeypatch, B=1)


def test_replicate_bf_chain_replicates_same_at_any_thread_count(monkeypatch):
    # two replicates: their parts share one map, then each walks its levels
    chain_same_at_any_thread_count(monkeypatch, B=2)


@pytest.mark.parametrize("kind", ["independence", "equal_association"])
def test_replicate_bf_limit_route_same_at_any_thread_count(monkeypatch, kind):
    # alzheimer on local logits: independence has a limit part per side and
    # stratum, equal association one per side, whose 40 cells span both strata
    table = load_fixture("alzheimer")
    model = model_from_dict({"name": kind, "logits": "local", "constraints": [{"kind": kind}]},
                            table.dims, table.s)
    outs = []
    for n in THREAD_COUNTS:
        est = on_threads(monkeypatch, n, lambda: replicate_bf(
            model, table, PriorSpec.flat(table.r, table.s, 1.0),
            RunSettings(n_draws=40_000), B=2, seed=17))
        outs.append(as_json(est.to_dict()))
    assert est.route == "limit/limit"
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
    settings = RunSettings(n_draws=6_000, pilot_n=3_000)
    outs = []
    for n in THREAD_COUNTS:
        est = on_threads(monkeypatch, n, lambda: replicate_bf(
            model, table, PriorSpec.flat(table.r, table.s, 1.0), settings, B=3, seed=15))
        outs.append(as_json(est.to_dict()))
    assert est.route == "direct/direct"
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_replicate_bf_stratum_split_same_at_any_thread_count(monkeypatch):
    # replicates on threads; the strata and tuning probes inside each
    # replicate run inline
    table = table_3x3_two_strata()
    model = model_from_dict({"name": "pqd", "logits": "global", "constraints": [{"kind": "pqd"}]},
                            table.dims, table.s)
    assert ModelEval(model, table.dims, table.s).stratum_split() is not None
    settings = RunSettings(n_draws=2_000, pilot_n=2_000)
    set_engine(monkeypatch, _DIRECT_THRESHOLD=1.1, DEFAULT_ALPHA_GRID=(1.0, 5.0, 20.0))
    outs = []
    for n in THREAD_COUNTS:
        est = on_threads(monkeypatch, n, lambda: replicate_bf(
            model, table, PriorSpec.flat(table.r, table.s, 1.0), settings, B=3, seed=16))
        outs.append(as_json(est.to_dict()))
    assert est.route == "importance/importance"
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_replicate_bf_split_route_same_at_any_thread_count(monkeypatch):
    # replicates and strata, each part one split run on its own stream
    table = table_3x3_two_strata()
    model = model_from_dict({"name": "tp2", "logits": "local", "constraints": [{"kind": "tp2"}]},
                            table.dims, table.s)
    settings = RunSettings(n_draws=2_000, pilot_n=2_000)
    set_engine(monkeypatch, _DIRECT_THRESHOLD=1.1)
    outs = []
    for n in THREAD_COUNTS:
        est = on_threads(monkeypatch, n, lambda: replicate_bf(
            model, table, PriorSpec.flat(table.r, table.s, 1.0), settings, B=3, seed=16))
        outs.append(as_json(est.to_dict()))
    assert est.route == "split/split"
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_replicate_bf_father_son_split_same_at_any_thread_count(monkeypatch):
    # an odd B on the split route: the parts of three replicates in one map.
    # Each replicate's estimate comes from a call of engine.bayes_factor,
    # looked up at call time, so a wrapper sees all B of them
    table = load_fixture("father_son")
    model = model_from_dict({"name": "tp2", "logits": "local", "constraints": [{"kind": "tp2"}]},
                            table.dims, table.s)
    settings = RunSettings(n_draws=2_000, pilot_n=2_000)
    calls = []
    orig = engine.bayes_factor

    def recorded(*args, **kwargs):
        est = orig(*args, **kwargs)
        calls.append(est.log10_bf)
        return est

    monkeypatch.setattr(engine, "bayes_factor", recorded)
    outs = []
    for n in THREAD_COUNTS:
        del calls[:]
        est = on_threads(monkeypatch, n, lambda: replicate_bf(
            model, table, PriorSpec.flat(table.r, table.s, 1.0), settings, B=3, seed=20))
        outs.append(as_json(est.to_dict()))
        assert sorted(calls) == sorted(est.replicates) and len(calls) == 3
    assert est.route == "split/split"
    assert outs[1] == outs[0] and outs[2] == outs[0]


def replicate_seed(seed, i):
    """The seed replicate i of replicate_bf runs at."""
    return int(np.random.SeedSequence(
        seed, spawn_key=(engine._PURPOSE["replicate"], i)).generate_state(1)[0])


def split_3x3(monkeypatch, B, seed):
    """replicate_bf of TP2 on a 3x3 table, split on both sides."""
    set_engine(monkeypatch, _DIRECT_THRESHOLD=1.1)
    return replicate_bf(model_tp2_3x3(), table_3x3(), PriorSpec.flat(9, 1, 1.0),
                        RunSettings(n_draws=2_000, pilot_n=2_000), B=B, seed=seed)


def test_every_replicates_parts_share_one_map(monkeypatch):
    # on two threads with B = 3, the two parts of replicate 2 run side by
    # side: they meet at a barrier, which a replicate that built its parts
    # one after the other on its own thread would never pass
    barrier = threading.Barrier(2, timeout=30)
    third, met = replicate_seed(18, 2), []
    orig = engine._Part.__init__

    def init(self, side, ev, target_alpha, table, settings, seed, path):
        if seed == third:
            barrier.wait()
            met.append(side)
        orig(self, side, ev, target_alpha, table, settings, seed, path)

    monkeypatch.setattr(engine._Part, "__init__", init)
    est = on_threads(monkeypatch, 2, lambda: split_3x3(monkeypatch, 3, 18))
    assert sorted(met) == ["posterior", "prior"] and len(est.replicates) == 3


@pytest.mark.parametrize("n", THREAD_COUNTS)
def test_lowest_failing_replicate_raises(monkeypatch, n):
    # replicate 0 fails at its levels and replicate 1 at its posterior
    # part: replicate 0's error is raised, as a loop over the replicates
    # would raise it. Without replicate 0's failure the part's error is
    # raised, from replicate 1's bayes_factor call
    s0, s1 = replicate_seed(19, 0), replicate_seed(19, 1)
    init, level = engine._Part.__init__, engine._Part.level

    def failing_init(self, side, ev, target_alpha, table, settings, seed, path):
        if seed == s1 and side == "posterior":
            raise ValueError("part of replicate 1")
        init(self, side, ev, target_alpha, table, settings, seed, path)

    def failing_level(self, scale):
        if self.seed == s0:
            raise ValueError("levels of replicate 0")
        return level(self, scale)

    monkeypatch.setattr(engine._Part, "__init__", failing_init)
    monkeypatch.setattr(engine._Part, "level", failing_level)
    with pytest.raises(ValueError, match="levels of replicate 0"):
        on_threads(monkeypatch, n, lambda: split_3x3(monkeypatch, 3, 19))

    monkeypatch.setattr(engine._Part, "level", level)
    raised = []
    orig = engine.bayes_factor

    def recorded(*args, **kwargs):
        try:
            return orig(*args, **kwargs)
        except ValueError as err:
            raised.append(str(err))
            raise

    monkeypatch.setattr(engine, "bayes_factor", recorded)
    with pytest.raises(ValueError, match="part of replicate 1"):
        on_threads(monkeypatch, n, lambda: split_3x3(monkeypatch, 3, 19))
    assert raised == ["part of replicate 1"]


@pytest.mark.parametrize("case", posterior_cases(), ids=lambda c: c[0])
def test_posterior_summary_same_at_any_thread_count(monkeypatch, case):
    # factorising models run one unit per stratum on threads, each unit's
    # summaries inline; a one-unit model fans out over its strata, if any
    _, model, table, prior, sizes = case
    want = as_json(posterior_summary_reference(model, table, prior, **sizes))
    set_engine(monkeypatch, _CHUNK=sizes["chunk"])
    for n in THREAD_COUNTS:
        s = on_threads(monkeypatch, n, lambda: engine.posterior_draws_under_model(
            model, table, prior, sizes["n"], sizes["seed"]))
        assert as_json(s.to_dict()) == want


def test_concurrent_replicates_fit_each_centre_once(monkeypatch):
    # concurrent replicates miss the same keys together; each is fitted once
    table = table_3x3_two_strata()
    model = model_from_dict({"name": "pqd", "logits": "global", "constraints": [{"kind": "pqd"}]},
                            table.dims, table.s)
    settings = RunSettings(n_draws=2_000, pilot_n=2_000)
    set_engine(monkeypatch, _DIRECT_THRESHOLD=1.1, _ESS_FLOOR=1e9,
               DEFAULT_ALPHA_GRID=(5.0, 50.0))
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
