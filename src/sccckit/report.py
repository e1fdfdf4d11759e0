"""Structured pass/fail records for verification runs.

Reports serialize deterministically: same suite, model, seed, trials and
tolerance must produce byte-identical JSON.  Witness morphisms are embedded
as flat row-major lists of [re, im] pairs together with their end objects.
The JSON is written in one direct pass (``_write_json``) whose bytes are
those of ``json.dumps(indent=2, sort_keys=True, default=_plain)``.  json
encodes an indented document with its pure-Python generator encoder, not
its C one, and that took about a fifth of a ``protocol teleport`` run.

Every report comes from ``CheckRunner``: each suite, the equivalence theorem
and teleportation are tables of checks, and the runner alone owns the random
streams, the tolerance and the status.  No other module builds a
``CheckResult`` or a ``VerificationReport``, or writes a status.  A row's
stream words come from numpy's ``SeedSequence`` algorithm, written once as
one pass over a (4, n) pool of the words [seed, row, trial, 0] of n trials
(``_trial_words``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterator, NamedTuple

import numpy as np

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
        out = []
        _write_json(self.to_dict(), out.append, "\n")
        out.append("\n")
        return "".join(out)

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
    """

    def __init__(self, trials: int, seed: int, tolerance: float | None = None):
        self.trials = trials
        self.seed = seed
        self.tol = REL_TOL if tolerance is None else tolerance

    def run(self, checks) -> list[CheckResult]:
        return [self._run(idx, check) for idx, check in enumerate(checks)]

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
                seed_words = _seed_words_class()
                for words in _trial_words(seed, idx, batched):
                    yield np.random.default_rng(np.random.PCG64(seed_words(words)))
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


@cache
def _seed_words_class() -> type:
    """An ``ISeedSequence`` over words computed in advance.

    Defined on first use, so that importing sccckit does not load
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
                raise ValueError(f"only {len(self.words)} {self.words.dtype} "
                                 "words were computed")
            return self.words

    return SeedWords


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


# -- the JSON text of a report -------------------------------------------------
#
# json.dumps(indent=2, sort_keys=True, default=_plain), written directly: the
# same type dispatch in the same order, separators "," and ": ", strings and
# keys through json's own (C) string escaper, floats as float.__repr__ with
# json's names for the non-finite ones, and non-str keys converted as json
# converts them.  A witness is a tree: a cyclic one ends in RecursionError
# where json raises ValueError.

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _key_text(key) -> str:
    """A key that is not a str, as json converts it."""
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write_json(value, put: Callable[[str], None], newline: str) -> None:
    """Pass ``value``'s JSON text to ``put`` piece by piece; ``newline`` is a
    line break followed by the indent of ``value``'s own line."""
    if isinstance(value, str):
        put(_quote(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, float):
        put(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            sep = "," + inner
            _write_json(item, put, inner)
        put(newline + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            put(sep + _quote(key if isinstance(key, str) else _key_text(key)) + ": ")
            sep = "," + inner
            _write_json(item, put, inner)
        put(newline + "}")
    else:
        _write_json(_plain(value), put, newline)
