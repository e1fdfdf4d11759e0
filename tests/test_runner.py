"""The one check runner: stream keys, error capture, status, tolerance, and
the two processes a large table runs in."""

import ast
import cProfile
import math
import os
import threading
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from sccckit import (COMPLEX, NONNEG, ModelHandle, SccckitError, TypeMismatch,
                     WProjModel, corrupted_trace, fdhilb, resolve_model,
                     run_suite, run_teleportation, scalar)
from sccckit import protocols, report
from sccckit.born import _run_legs, leg_checks
from sccckit.report import (EXPECTED_FAIL, PER_TRIAL, VACUOUS, WHOLE, Check,
                            CheckRunner, Held, _TRIAL_CHUNK, _outcome, _trial_words)
from sccckit.semirings import REL_TOL, corrupted_complex
from sccckit.suites import _sccc_checks


@pytest.fixture(autouse=True)
def no_leaked_descriptors():
    """Each test leaves as many file descriptors open as it found: a forked
    table opens four pipe ends and closes them all on every path."""
    fds = "/proc/self/fd"
    before = len(os.listdir(fds)) if os.path.isdir(fds) else None
    yield
    if before is not None:
        assert len(os.listdir(fds)) == before


def _raise_on(trial_to_fail):
    calls = []

    def fn(rng):
        calls.append(rng)
        if len(calls) - 1 == trial_to_fail:
            raise TypeMismatch("boom")
        return None

    return fn


@pytest.mark.parametrize("kind, trial", [(PER_TRIAL, 2), (WHOLE, 0),
                                         (EXPECTED_FAIL, 0)])
def test_library_error_becomes_failure_with_trial(kind, trial):
    runner = CheckRunner(trials=5, seed=11)
    [result] = runner.run([Check("raises", "law", kind, _raise_on(trial))])
    assert result.status == "fail"
    assert result.witness == {"error": "boom", "trial": trial}


def test_other_exceptions_are_not_swallowed():
    def fn(rng):
        raise ZeroDivisionError("a bug, not a verdict")

    with pytest.raises(ZeroDivisionError):
        CheckRunner(trials=3, seed=0).run([Check("bug", "law", PER_TRIAL, fn)])



def test_a_broken_law_ends_its_row_with_its_witness():
    law = report.Law(fdhilb(), REL_TOL)
    one, two = scalar(1.0, COMPLEX), scalar(2.0, COMPLEX)
    built = []

    def witness():
        built.append(True)
        return {"note": "built on failure"}

    trials = []

    def breaks_at_trial_2(rng):
        trials.append(rng)
        law(one, one, {"note": "not this one"})
        law(one, two if len(trials) == 3 else one, witness)

    table = [
        Check("holds", "law", PER_TRIAL, lambda rng: law(one, one, witness)),
        Check("lazy", "law", PER_TRIAL, breaks_at_trial_2),
        Check("default", "law", WHOLE, lambda rng: law(two, one)),
    ]
    results = CheckRunner(trials=4, seed=2).run(table)
    assert built == [True]  # only the broken law built its witness
    assert [r.status for r in results] == ["pass", "fail", "fail"]
    assert results[1].witness == {"note": "built on failure", "trial": 2}
    assert results[2].witness == {"distance": 1.0, "trial": 0}
    assert not issubclass(report.Broken, SccckitError)

def test_statuses_and_conditional_counts():
    def held(rng):
        return None

    def sometimes_vacuous(rng):
        return VACUOUS if rng.random() < 0.5 else None

    table = [
        Check("held", "law", PER_TRIAL, held),
        Check("conditional", "law", PER_TRIAL, sometimes_vacuous, conditional=True),
        Check("violated", "law", EXPECTED_FAIL, lambda rng: (True, {"w": 1})),
        Check("unexpectedly-held", "law", EXPECTED_FAIL, lambda rng: (False, None)),
    ]
    results = CheckRunner(trials=40, seed=5).run(table)
    assert [r.status for r in results] == ["pass", "pass", "expected-fail", "fail"]
    assert results[0].witness is None
    hits = sum(np.random.default_rng([5, 1, t]).random() >= 0.5 for t in range(40))
    assert results[1].witness == {"antecedent_pairs": hits}
    assert results[2].witness == {"w": 1}
    assert results[3].witness == {"note": "the law unexpectedly held", "trial": 0}


def test_failing_witness_replays_from_its_stream_key():
    m, seed = fdhilb(), 3
    names = ("diagonal-axiom", "diagonal-axiom-derived-sum")
    results = _run_legs(names, m, 15, seed, corrupted_trace, None)
    legs = [c for c in leg_checks(m, REL_TOL, corrupted_trace) if c.name in names]
    replayed = 0
    for idx, (result, leg) in enumerate(zip(results, legs)):
        assert result.check_name == leg.name
        if result.status != "fail":
            continue
        witness = dict(result.witness)
        trial = witness.pop("trial")
        assert _outcome(leg.fn, np.random.default_rng([seed, idx, trial])) == witness
        # every earlier trial of that stream held
        assert all(_outcome(leg.fn, np.random.default_rng([seed, idx, t])) is None
                   for t in range(trial))
        replayed += 1
    assert replayed >= 1


def test_failing_suite_check_replays_from_report():
    """A broken involution fails a sccc check; the report alone replays it."""
    broken = ModelHandle("broken", corrupted_complex())
    report = run_suite("sccc", broken, trials=10, seed=9, max_dim=2)
    table = _sccc_checks(broken, report.tolerance, 2)
    failures = [(i, r) for i, r in enumerate(report.results) if r.status == "fail"]
    assert failures
    for idx, result in failures:
        witness = dict(result.witness)
        trial = witness.pop("trial")
        outcome = table[idx].fn(np.random.default_rng([report.seed, idx, trial]))
        assert outcome == witness


@dataclass(frozen=True)
class _RecordingModel(ModelHandle):
    rels: list = field(default_factory=list, compare=False)

    def equal(self, f, g, rel=None):
        self.rels.append(rel)
        return super().equal(f, g, rel)


class _RecordingQuotient(WProjModel):
    def __init__(self, base):
        super().__init__(base)
        self.rels = []

    def equal(self, f, g, rel=None):
        self.rels.append(rel)
        return super().equal(f, g, rel)


@pytest.mark.parametrize("make", [
    lambda: _RecordingModel("fdhilb", COMPLEX),
    lambda: _RecordingModel("weights", NONNEG),
    lambda: _RecordingQuotient(fdhilb()),
])
@pytest.mark.parametrize("suite", ["born", "prep-state", "equivalence"])
def test_tolerance_reaches_every_equality(make, suite):
    model = make()
    report = run_suite(suite, model, trials=3, seed=1, max_dim=2, tolerance=1e-7)
    assert report.tolerance == 1e-7
    assert model.rels and set(model.rels) == {1e-7}

    model.rels.clear()
    report = run_suite(suite, model, trials=3, seed=1, max_dim=2)
    assert report.tolerance == REL_TOL
    assert model.rels and set(model.rels) == {REL_TOL}


def test_whole_and_expected_fail_checks_draw_no_stream():
    seen = []

    def whole(rng):
        seen.append(rng)
        return None

    def expected(rng):
        seen.append(rng)
        return True, {"w": 1}

    CheckRunner(trials=4, seed=2).run([Check("whole", "law", WHOLE, whole),
                                        Check("expected", "law", EXPECTED_FAIL, expected)])
    assert seen == [None, None]


STREAM_WORDS = [0, 1, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5]


def _draws(rng):
    return (rng.random(8).tobytes(),
            rng.integers(0, 2 ** 63 - 1, size=8, dtype=np.int64).tobytes())


def test_runner_streams_are_the_list_form_streams(monkeypatch):
    keys = []
    default_rng = report.np.random.default_rng

    def recording(key):
        keys.append(key)
        return default_rng(key)

    monkeypatch.setattr(report.np.random, "default_rng", recording)
    for seed in STREAM_WORDS:
        runner = CheckRunner(trials=1, seed=seed)
        for row, trial in product(STREAM_WORDS, repeat=2):
            got = _draws(runner.stream(row, trial))
            assert got == _draws(default_rng([seed, row, trial])), (seed, row, trial)
            # the uint32 words while every word fits, else the list form itself
            fits = max(seed, row, trial) < 2 ** 32
            assert isinstance(keys[-1], np.random.PCG64) == fits
            assert fits or keys[-1] == [seed, row, trial]


def test_run_draws_each_trial_from_its_stream():
    drawn = []
    runner = CheckRunner(trials=3, seed=2 ** 32 - 1)
    runner.run([Check("first", "law", WHOLE, lambda rng: None),
                Check("second", "law", PER_TRIAL,
                      lambda rng: drawn.append(_draws(rng)))])
    assert drawn == [_draws(np.random.default_rng([2 ** 32 - 1, 1, t]))
                     for t in range(3)]


def _seed_sequence_words(seed, row, trial):
    key = np.array([seed, row, trial], dtype=np.uint32)
    return np.random.SeedSequence(key).generate_state(4, np.uint64)


def test_batched_words_are_the_seed_sequence_words():
    fitting = [w for w in STREAM_WORDS if w < 2 ** 32]
    for seed, row, trial in product(fitting, repeat=3):
        [words] = _trial_words(seed, row, range(trial, trial + 1))
        assert words.tobytes() == _seed_sequence_words(seed, row, trial).tobytes()
    rng = np.random.default_rng(2024)
    for seed, row, first in rng.integers(0, 2 ** 32 - 3, size=(1000, 3)).tolist():
        trials = range(first, first + 3)
        batch = _trial_words(seed, row, trials)
        assert batch.shape == (3, 4) and batch.dtype == np.uint64
        for words, trial in zip(batch, trials):
            assert (words == _seed_sequence_words(seed, row, trial)).all(), (seed, row, trial)


def test_run_draws_across_a_chunk_boundary_as_stream_does():
    drawn = []
    trials = _TRIAL_CHUNK + 3
    runner = CheckRunner(trials=trials, seed=41)
    runner.run([Check("whole", "law", WHOLE, lambda rng: None),
                Check("per-trial", "law", PER_TRIAL,
                      lambda rng: drawn.append(_draws(rng)))])
    assert len(drawn) == trials
    assert drawn == [_draws(runner.stream(1, t)) for t in range(trials)]
    assert drawn[-1] == _draws(np.random.default_rng([41, 1, trials - 1]))


def test_a_row_failing_at_trial_zero_seeds_one_generator(monkeypatch):
    seeded = []
    default_rng = report.np.random.default_rng

    def counting(*args, **kwargs):
        seeded.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(report.np.random, "default_rng", counting)
    [result] = CheckRunner(trials=10 ** 6, seed=3).run(
        [Check("fails", "law", PER_TRIAL, lambda rng: {"drew": rng.random()})])
    assert result.status == "fail" and result.witness["trial"] == 0
    assert len(seeded) == 1


def test_a_teleport_seeds_no_generator(monkeypatch):
    seeded = []
    default_rng = report.np.random.default_rng

    def counting(*args, **kwargs):
        seeded.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(report.np.random, "default_rng", counting)
    assert run_teleportation().ok
    assert seeded == []


def test_a_failing_teleport_check_names_its_trial(monkeypatch):
    setup = protocols.bell_teleportation_setup()
    monkeypatch.setattr(protocols, "bell_teleportation_setup",
                        lambda: setup._replace(undo=setup.undo[::-1]))
    failures = [r for r in run_teleportation().results if r.status == "fail"]
    assert failures
    assert all(r.witness["trial"] == 0 for r in failures)


def _sources():
    for path in sorted(Path(report.__file__).parent.glob("*.py")):
        if path.name != "report.py":
            yield path.name, ast.parse(path.read_text())


def test_only_the_runner_builds_results_and_reports():
    built = [(name, node.lineno) for name, tree in _sources()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
             in ("CheckResult", "VerificationReport")]
    assert built == []


def test_only_the_runner_writes_a_status():
    written = [(name, node.lineno) for name, tree in _sources()
               for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and node.value in report.STATUSES]
    assert written == []


# -- a table's rows in two processes --------------------------------------------

def _cheap_rows(n):
    return [Check(f"cheap-{i}", "law", PER_TRIAL, lambda rng: None) for i in range(n)]


# a table of two per-trial rows whose work reaches the threshold, on a host
# where the runner forks at all
two_processes = pytest.mark.skipif(
    not report._forks(_cheap_rows(2), report._FORK_MIN_WORK),
    reason="the runner stays serial on this host")


@pytest.fixture
def forks(monkeypatch):
    """The pid of each ``os.fork`` call, through a counting wrapper; a
    worker inherits the list as it was when it was forked."""
    calls = []
    fork = os.fork

    def counting():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


def _worker_rows(n, fn):
    """A table whose first row carries the work that makes it fork, then n
    whole rows running ``fn(i)``, each slow enough in the parent that the
    worker claims some of them."""
    parent = os.getpid()

    def row(i):
        def whole(_):
            if os.getpid() == parent:
                time.sleep(0.05)
            return fn(i)

        return Check(f"row-{i}", "law", WHOLE, whole)

    return _cheap_rows(1) + [row(i) for i in range(1, n + 1)]


@two_processes
@pytest.mark.parametrize("equal", ["model", "never"])
def test_a_sccc_table_forks_once_and_reports_the_serial_bytes(forks, monkeypatch,
                                                             equal):
    # 17 per-trial rows x 30 trials reach the threshold; with every equality
    # answering False each row fails at trial 0 and pickles a witness back
    if equal == "never":
        monkeypatch.setattr(ModelHandle, "equal", lambda self, f, g, rel=None: False)
    runner = CheckRunner(trials=30, seed=7)
    table = _sccc_checks(fdhilb(), runner.tol, 3)
    forked = runner.report("sccc", fdhilb(), runner.run(table)).to_json()
    assert forks == [os.getpid()]
    monkeypatch.setattr(report, "_FORK_MIN_WORK", math.inf)
    serial = runner.report("sccc", fdhilb(), runner.run(table)).to_json()
    assert len(forks) == 1
    assert forked == serial
    assert ('"status": "fail"' in forked) == (equal == "never")


def test_teleport_the_equivalence_legs_and_a_profiled_run_fork_nothing(forks):
    assert run_teleportation().ok
    assert run_suite("equivalence", resolve_model("wproj:fdhilb"), trials=100, seed=1).ok
    profiled = cProfile.Profile().runcall(
        CheckRunner(trials=report._FORK_MIN_WORK, seed=1).run, _cheap_rows(2))
    assert [r.status for r in profiled] == ["pass", "pass"]
    assert forks == []


@pytest.mark.skipif(report._blas_threads() is None,
                    reason="no OpenBLAS whose threads a table could hold")
def test_a_table_beside_a_second_thread_leaves_the_blas_threads_alone(forks):
    # the BLAS thread count is the whole process's: only a forked table,
    # which runs with no second thread, holds it
    get_threads, set_threads = report._blas_threads()
    original = get_threads()
    seen = []
    table = _cheap_rows(1) + [
        Check("reads", "law", WHOLE, lambda _: seen.append(get_threads()))]
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    set_threads(2)
    threads = get_threads()
    other.start()
    try:
        assert not report._forks(table, report._FORK_MIN_WORK)
        CheckRunner(trials=report._FORK_MIN_WORK, seed=1).run(table)
        CheckRunner(trials=1, seed=1).run(table)
        assert seen == [threads, threads] and get_threads() == threads
        assert forks == []
    finally:
        release.set()
        other.join()
        set_threads(original)


@two_processes
def test_a_table_run_inside_a_forked_table_forks_nothing(forks):
    parent = os.getpid()

    def nested(i):
        CheckRunner(trials=report._FORK_MIN_WORK, seed=i).run(_cheap_rows(2))
        return Held({"forks": len(forks), "in_worker": os.getpid() != parent})

    runner = CheckRunner(trials=report._FORK_MIN_WORK, seed=1)
    results = runner.run(_worker_rows(6, nested))
    witnesses = [r.witness for r in results[1:]]
    assert forks == [parent]
    assert all(w["forks"] == 1 for w in witnesses)
    assert any(w["in_worker"] for w in witnesses)


def _serial(runner, table):
    """The results of the serial loop: each row in table order, here."""
    return [runner._run(idx, check) for idx, check in enumerate(table)]


def _in_worker(path, i):
    """Note in the file ``path`` that the worker ran row i."""
    with open(path, "a") as noted:
        noted.write(f"{i}\n")


def _noted(path):
    return sorted(int(line) for line in path.read_text().split())


@two_processes
def test_a_row_that_raises_only_in_the_worker_gives_the_serial_report(forks, tmp_path):
    parent = os.getpid()
    noted = tmp_path / "worker-rows"

    def fn(i):
        if os.getpid() == parent:
            return Held({"row": i})
        _in_worker(noted, i)
        raise ValueError(f"row {i} broke")

    runner = CheckRunner(trials=report._FORK_MIN_WORK, seed=1)
    table = _worker_rows(6, fn)
    assert runner.run(table) == _serial(runner, table)
    assert forks == [parent] and len(_noted(noted)) >= 2


@two_processes
def test_a_row_that_raises_in_both_processes_raises_its_own_traceback(forks, tmp_path):
    # a row the worker claimed raises there and again in the parent; the
    # lowest such row raises, from the parent's serial loop, with its frame
    parent = os.getpid()
    noted = tmp_path / "worker-rows"

    def fn(i):
        if os.getpid() != parent:
            _in_worker(noted, i)
        elif not (noted.exists() and i in _noted(noted)):
            return None
        raise ValueError(f"row {i} broke")

    with pytest.raises(ValueError) as raised:
        CheckRunner(trials=report._FORK_MIN_WORK, seed=1).run(_worker_rows(6, fn))
    in_worker = _noted(noted)
    assert forks == [parent] and len(in_worker) >= 2
    assert str(raised.value) == f"row {in_worker[0]} broke"
    frames = [entry.name for entry in raised.traceback]
    assert frames[-2:] == ["whole", "fn"]
    assert "_run" in frames


@two_processes
def test_a_failed_fork_gives_the_serial_report_and_restores_the_process(monkeypatch):
    get_threads, _ = report._blas_threads()
    threads = get_threads()
    waited = []

    def no_fork():
        raise OSError("no process for a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "waitpid", lambda *args: waited.append(args))
    runner = CheckRunner(trials=30, seed=7)
    table = _sccc_checks(fdhilb(), runner.tol, 3)
    assert report._forks(table, runner.trials)
    assert runner.run(table) == _serial(runner, table)
    assert waited == []
    assert get_threads() == threads and report._forked is False


@two_processes
def test_a_result_that_does_not_pickle_is_run_again_in_the_parent(forks):
    parent = os.getpid()

    class Local:
        """Defined in a function, so pickle cannot find it by name."""

    def fn(i):
        if os.getpid() != parent:
            return Held({"local": Local()})
        return None

    results = CheckRunner(trials=report._FORK_MIN_WORK, seed=1).run(_worker_rows(6, fn))
    assert forks == [parent]
    assert [(r.status, r.witness) for r in results] == [("pass", None)] * 7


@two_processes
def test_a_worker_that_dies_mid_table_leaves_the_serial_report(forks, monkeypatch):
    parent = os.getpid()
    claimed = []

    def dying(idx, fn):
        def row(rng):
            if os.getpid() != parent:
                if idx not in claimed:
                    claimed.append(idx)
                if len(claimed) == 3:
                    os._exit(3)
            return fn(rng)

        return row

    runner = CheckRunner(trials=30, seed=7)
    table = [c._replace(fn=dying(i, c.fn))
             for i, c in enumerate(_sccc_checks(fdhilb(), runner.tol, 3))]
    forked = runner.report("sccc", fdhilb(), runner.run(table)).to_json()
    assert forks == [parent]
    monkeypatch.setattr(report, "_FORK_MIN_WORK", math.inf)
    assert forked == runner.report("sccc", fdhilb(), runner.run(table)).to_json()
