"""Structured pass/fail records for verification runs.

Reports serialize deterministically: same suite, model, seed, trials and
tolerance must produce byte-identical JSON.  Witness morphisms are embedded
as flat row-major lists of [re, im] pairs together with their end objects.
The JSON is ``json.dumps(sort_keys=True, default=_plain)``, one line that
json writes with its C encoder (indented, it would take the pure-Python
one); ``python -m json.tool --indent 2 --sort-keys`` indents it.

Every report comes from ``CheckRunner``: each suite, the equivalence theorem
and teleportation are tables of checks, and the runner alone owns the random
streams, the tolerance and the status.  No other module builds a
``CheckResult`` or a ``VerificationReport``, or writes a status.  A row's
stream words come from numpy's ``SeedSequence`` algorithm, written once as
one pass over a (4, n) pool of the words [seed, row, trial, 0] of n trials
(``_trial_words``).

A row's draws are keyed by (seed, row, trial) alone and no row reads
another's outcome, so the rows of a table may run in any order, and in two
processes.  ``CheckRunner.run`` forks one worker for a table whose per-trial
rows times trials reach ``_FORK_MIN_WORK``; both processes claim rows from
one pipe, the worker sends back only the results its rows returned, and
every row left without a result runs in the parent, in table order.  So the
results, or the exception and its traceback, are the serial loop's.  It
stays serial for a smaller table (teleport's six whole rows, the
equivalence theorem's 3 x 30 legs), on a host without ``os.fork`` or two
CPUs for the process, when numpy's BLAS is not an OpenBLAS it can hold to
one thread, under a profiler or tracer, beside a second thread, and inside
a worker or while one runs.  Memo entries a worker fills (``cache``d
functions, kept criteria) are not returned to the parent, which fills its
own when it needs them.
"""
from __future__ import annotations

import json
import os
import pickle
import signal
import sys
import threading
from contextlib import suppress
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable, Iterator, NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InvariantViolation, SccckitError
from .morphisms import Morphism, distance
from .objects import dim, format_object, parse_object
from .semirings import REL_TOL

STATUSES = ("pass", "fail", "expected-fail")


@dataclass(frozen=True)
class CheckResult:
    check_name: str
    law: str
    status: str
    witness: object = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise InvariantViolation(f"unknown status {self.status!r}")
        if self.status == "fail" and self.witness is None:
            raise InvariantViolation(f"{self.check_name}: a failure needs a witness")

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    model: str
    seed: int
    tolerance: float
    trials: int
    results: tuple

    schema: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))

    @property
    def ok(self) -> bool:
        """True when nothing failed; expected failures are successes."""
        return all(r.status != "fail" for r in self.results)

    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in STATUSES}
        for r in self.results:
            out[r.status] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "suite": self.suite,
            "model": self.model,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "trials": self.trials,
            "results": [
                {"check_name": r.check_name, "law": r.law,
                 "status": r.status, "witness": r.witness}
                for r in self.results
            ],
        }

    def to_json(self) -> str:
        """The canonical JSON form: one line of sorted keys and a newline."""
        return json.dumps(self.to_dict(), sort_keys=True, default=_plain) + "\n"

    def to_text(self) -> str:
        width = max((len(r.check_name) for r in self.results), default=0)
        lines = [f"suite={self.suite} model={self.model} seed={self.seed} "
                 f"trials={self.trials} tolerance={self.tolerance}"]
        for r in self.results:
            lines.append(f"  {r.status:>13}  {r.check_name:<{width}}  {r.law}")
        c = self.counts()
        lines.append(f"  {c['pass']} pass, {c['fail']} fail, "
                     f"{c['expected-fail']} expected-fail")
        return "\n".join(lines) + "\n"


PER_TRIAL, WHOLE, EXPECTED_FAIL = "per-trial", "whole", "expected-fail"

_WORD = 2 ** 32  # a stream key word below this is one SeedSequence entropy word
_MASK = _WORD - 1

# the trials whose stream words one vectorized pass computes: a row that fails
# at trial 0 pays for one chunk, not for all of its trials
_TRIAL_CHUNK = 256

# a table runs in two processes when its per-trial rows times its trials reach
# this.  A fork and join costs about 5 ms in a warmed process, and prep-state's
# 3 rows x 100 trials (about 25 ms) ran no faster forked
_FORK_MIN_WORK = 400
# a row index on the claim pipe, in bytes; every index is written before the
# fork, so a table must fit one page, the least a pipe holds
_RECORD = 2
_MAX_ROWS = 4096 // _RECORD
# true while this process runs a table in two processes, and in the worker: a
# table nested in either stays serial, so a run has one worker at most
_forked = False

# returned by a conditional check on a trial whose antecedent did not hold
VACUOUS = "vacuous"


class Held(NamedTuple):
    """A passing outcome of a whole check that still carries a witness."""

    witness: dict


class Check(NamedTuple):
    """One row of a check table.

    ``fn(rng)`` states each equation of its law as a call to the table's
    ``Law``; the first one broken ends the row with its witness, and a row
    that returns None held.  A row that decides without ``model.equal``
    (a fixed threshold, an exception, a criterion breakdown) returns its
    witness dict instead when it fails.  A whole check, whose ``rng`` is
    None, may return ``Held(witness)`` to pass with one.  A
    conditional per-trial check returns VACUOUS on trials whose antecedent
    did not hold and passes with the count of those where it did.  An
    expected-fail check returns (violated, witness): the violation is the
    healthy outcome.
    """

    name: str
    law: str
    kind: str
    fn: Callable
    conditional: bool = False


class Broken(Exception):
    """A law's two sides differ; carries the witness that ends its row.

    Not a ``SccckitError``: a broken law is the check's verdict, not a
    library error.
    """

    def __init__(self, witness: dict):
        super().__init__(witness)
        self.witness = witness


class Law:
    """The one comparer of a check table, bound to a model and a tolerance.

    ``law(lhs, rhs, witness)`` decides ``model.equal(lhs, rhs, tol)``.  When
    the two sides differ it raises ``Broken`` with ``witness``: a dict, or a
    zero-argument callable run only then; when omitted, the sides'
    ``distance``.  ``CheckRunner`` records that as the row's failure.
    """

    def __init__(self, model, tol: float):
        self.model = model
        self.tol = tol

    def __call__(self, lhs: Morphism, rhs: Morphism, witness=None) -> None:
        if self.model.equal(lhs, rhs, self.tol):
            return
        if witness is None:
            witness = {"distance": distance(lhs, rhs)}
        elif callable(witness):
            witness = witness()
        raise Broken(witness)


class CheckRunner:
    """Runs check tables under one seeding, tolerance and status policy.

    Trial t of the per-trial check at position i of a table draws from the
    numpy stream ``np.random.default_rng([seed, i, t])``, and a failure's
    witness records t, so the report alone names everything needed to replay
    it.  When seed, i and t each fit in 32 bits, the runner does not seed
    that stream trial by trial.  Each such word is one entropy word of the
    list form, so the stream's ``PCG64`` is seeded from the four words
    ``SeedSequence(uint32[seed, i, t]).generate_state(4, uint64)``, and the
    runner computes those words for a chunk of a row's trials in one
    vectorized pass over a (4, n) pool (``_trial_words``), and a row that
    stops early pays for one chunk.  Each trial then gets
    ``default_rng(PCG64(<its words>))`` through numpy's ``ISeedSequence``
    interface, the same draws as the list form.  A word outside [0, 2^32) keeps the list form itself.  ``stream``
    and ``run`` share this one path.  A whole or expected-fail check runs
    once, as trial 0, and is called with None: it draws nothing, so the
    runner seeds no stream for it.  A broken ``Law`` and a ``SccckitError``
    raised by any check are that check's failure.

    Since rows read nothing of one another, ``run`` may run a table's rows
    in two processes (``_run_forked``) and return what the serial loop
    does: the results in table order, or the exception of the first row
    that raises one, raised by the serial loop itself, since every row
    without a result from the worker runs in the parent, in table order.
    It stays serial unless the table has two rows or more and its per-trial
    rows times trials reach ``_FORK_MIN_WORK``, the process has two CPUs,
    ``os.fork`` and an OpenBLAS it can hold to one thread
    (``_blas_threads``), no profiler or tracer is set, one thread runs and
    no table runs in two processes already.  Memo entries filled in the
    worker are not returned to the parent.
    """

    def __init__(self, trials: int, seed: int, tolerance: float | None = None):
        self.trials = trials
        self.seed = seed
        self.tol = REL_TOL if tolerance is None else tolerance

    def run(self, checks) -> list[CheckResult]:
        checks = list(checks)
        if _forks(checks, self.trials):
            return self._run_forked(checks)
        return [self._run(idx, check) for idx, check in enumerate(checks)]

    def _run_forked(self, checks: list) -> list[CheckResult]:
        """``run`` in this process and one forked worker.

        Every row index is written to a pipe before the fork, and each
        process claims rows from it until it is empty.  The worker pickles
        the results its rows returned into a second pipe and exits.  Then
        every row without a result, because it raised, the worker died or
        its results do not pickle, runs here, in table order, so a row that
        raises does so from the serial loop.  An interrupt kills the worker,
        and the worker is always reaped before ``run`` returns or raises.
        """
        global _forked
        claims, claim_rows = os.pipe()
        os.write(claim_rows, b"".join(idx.to_bytes(_RECORD, "little")
                                      for idx in range(len(checks))))
        os.close(claim_rows)
        returned, worker_out = os.pipe()
        get_threads, set_threads = _blas_threads()
        threads = get_threads()
        set_threads(1)
        _forked = True
        try:
            pid = os.fork()
        except OSError:  # no worker: this process claims every row
            pid = None
        if pid == 0:
            try:
                with open(worker_out, "wb") as out:
                    pickle.dump(self._claimed(checks, claims), out)
            finally:
                os._exit(0)
        os.close(worker_out)
        try:
            with open(returned, "rb") as back:
                done = self._claimed(checks, claims)
                with suppress(Exception):  # the worker died, or sent nothing whole
                    done.update(pickle.load(back))
        except BaseException:
            if pid:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.close(claims)
            if pid:
                os.waitpid(pid, 0)
            _forked = False
            set_threads(threads)
        return [done[idx] if idx in done else self._run(idx, check)
                for idx, check in enumerate(checks)]

    def _claimed(self, checks: list, claims: int) -> dict:
        """Run each row this process claims from the pipe ``claims``; the
        result of each that returned one, by row index."""
        done = {}
        while record := os.read(claims, _RECORD):
            idx = int.from_bytes(record, "little")
            with suppress(Exception):  # ``_run_forked`` runs it again
                done[idx] = self._run(idx, checks[idx])
        return done

    def stream(self, idx: int, trial: int) -> np.random.Generator:
        """The generator of trial ``trial`` of the check at position ``idx``."""
        return next(self._streams(idx, range(trial, trial + 1)))

    def _streams(self, idx: int, trials: range) -> Iterator[np.random.Generator]:
        """The generators of ``trials`` of the check at position ``idx``, in order."""
        seed = self.seed
        fits = 0 <= min(seed, idx, trials.start) and max(seed, idx) < _WORD
        for start in range(trials.start, trials.stop, _TRIAL_CHUNK):
            chunk = range(start, min(start + _TRIAL_CHUNK, trials.stop))
            batched = chunk[:max(0, _WORD - start)] if fits else chunk[:0]
            if batched:
                for words in _trial_words(seed, idx, batched):
                    yield np.random.default_rng(np.random.PCG64(_SeedWords(words)))
            for trial in chunk[len(batched):]:
                yield np.random.default_rng([seed, idx, trial])

    def report(self, suite: str, model, results) -> VerificationReport:
        return VerificationReport(suite=suite, model=model.name, seed=self.seed,
                                  tolerance=self.tol, trials=self.trials,
                                  results=results)

    def _run(self, idx: int, check: Check) -> CheckResult:
        name, law, kind, fn, conditional = check
        held = 0
        rngs = self._streams(idx, range(self.trials)) if kind == PER_TRIAL else [None]
        for trial, rng in enumerate(rngs):
            try:
                outcome = _outcome(fn, rng)
            except SccckitError as exc:
                return _failed(name, law, {"error": str(exc)}, trial)
            if kind == EXPECTED_FAIL:
                violated, witness = outcome
                if violated:
                    return CheckResult(name, law, "expected-fail", witness)
                witness = dict(witness or {})
                witness.setdefault("note", "the law unexpectedly held")
                return _failed(name, law, witness, trial)
            if isinstance(outcome, Held):
                return CheckResult(name, law, "pass", outcome.witness)
            if outcome is VACUOUS:
                continue
            if outcome is not None:
                return _failed(name, law, outcome, trial)
            held += 1
        return CheckResult(name, law, "pass",
                           {"antecedent_pairs": held} if conditional else None)


def _forks(checks: list, trials: int) -> bool:
    """Whether ``run`` runs ``checks`` in two processes."""
    work = trials * sum(check.kind == PER_TRIAL for check in checks)
    return (work >= _FORK_MIN_WORK and 1 < len(checks) <= _MAX_ROWS
            and not _forked and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and sys.getprofile() is None and sys.gettrace() is None
            and threading.active_count() == 1 and _blas_threads() is not None)


@cache
def _blas_threads():
    """The (get, set) thread-count functions of the OpenBLAS numpy loaded,
    or None.  An OpenBLAS helper thread spins while it waits for work, so
    two processes that each keep one run slower on two CPUs than one
    process: a forked table holds both to one BLAS thread."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    for lib, prefix, suffix in product(libs, ("openblas", "scipy_openblas"),
                                       ("64_", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get and put:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _outcome(fn: Callable, rng):
    """What one call of a check gives: its return value, or the witness of
    the law it broke."""
    try:
        return fn(rng)
    except Broken as broken:
        return broken.witness


def _failed(name: str, law: str, witness: dict, trial: int) -> CheckResult:
    witness.setdefault("trial", trial)
    return CheckResult(name, law, "fail", witness)


# -- the stream words of a row's trials, in one pass ---------------------------
#
# numpy's SeedSequence (NEP 19) hashes its entropy words into a pool of four
# uint32 words, the fourth from a zero pad; then each pool word in turn is
# hashed and mixed into the three others.  Every hash multiplies its running
# constant, so the constants are fixed.  generate_state(4, uint64) hashes the
# pool, cycled, into eight uint32 words and pairs them little-endian.  The
# constants are built from Python ints masked to 32 bits; the hashing runs on
# uint32 arrays, which wrap by themselves.

def _hash_constants(h: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The (xor, mult) pairs of ``n`` successive hashes from constant ``h``."""
    out = []
    for _ in range(n):
        out.append((h, h * mult & _MASK))
        h = out[-1][1]
    return out


_POOL_XOR, _POOL_MULT = np.array(_hash_constants(0x43b0d7e5, 0x931e8875, 16),
                                 dtype=np.uint32).T[..., None]
_STATE_XOR, _STATE_MULT = np.array(_hash_constants(0x8b51f9dd, 0x58f38ded, 8),
                                   dtype=np.uint32).T[..., None]
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715
_OTHERS = [[dst for dst in range(4) if dst != src] for src in range(4)]


def _hash(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


class _SeedWords(ISeedSequence):
    """An ``ISeedSequence`` over words computed in advance."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"only {len(self.words)} {self.words.dtype} "
                             "words were computed")
        return self.words


def _trial_words(seed: int, idx: int, trials: range) -> np.ndarray:
    """``SeedSequence(uint32[seed, idx, t]).generate_state(4, uint64)`` for
    every t in ``trials``, one row of words per trial; seed, idx and each t
    are below 2^32."""
    pool = np.zeros((4, len(trials)), dtype=np.uint32)
    pool[0], pool[1], pool[2] = seed, idx, trials
    words = _hash(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    # the three words a round mixes into are disjoint from the one it hashes,
    # so each round is one pass over a stacked (3, n) array
    for src, dst in enumerate(_OTHERS):
        k = 4 + 3 * src
        words[dst] = _mix(words[dst], _hash(words[src], _POOL_XOR[k:k + 3],
                                            _POOL_MULT[k:k + 3]))
    state = _hash(words[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MULT)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(
        np.uint64, copy=False)


def from_json(text: str) -> VerificationReport:
    d = json.loads(text)
    results = tuple(
        CheckResult(r["check_name"], r["law"], r["status"], r["witness"])
        for r in d["results"])
    return VerificationReport(
        suite=d["suite"], model=d["model"], seed=d["seed"],
        tolerance=d["tolerance"], trials=d["trials"], results=results,
        schema=d["schema"])


def serialize_morphism(f) -> dict:
    """Flat row-major [re, im] pairs plus the end objects as text."""
    flat = np.asarray(f.array, dtype=np.complex128).ravel(order="C").tolist()
    return {
        "dom": format_object(f.dom),
        "cod": format_object(f.cod),
        "entries": [[z.real, z.imag] for z in flat],
    }


def deserialize_morphism(d: dict, model):
    dom = parse_object(d["dom"])
    cod = parse_object(d["cod"])
    pairs = d["entries"]
    arr = np.array([complex(re, im) for re, im in pairs],
                   dtype=np.complex128).reshape(dim(cod), dim(dom))
    if model.semiring.dtype != np.complex128:
        arr = arr.real.astype(model.semiring.dtype)
    return Morphism(dom, cod, arr, model.semiring)


def _plain(x):
    """JSON fallback for complex numbers and numpy scalars and arrays living
    inside witnesses; a complex number is its [re, im] pair."""
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real), float(x.imag)]
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)!r}")

