"""Structured pass/fail records for verification runs.

Reports serialize deterministically: same suite, model, seed, trials and
tolerance must produce byte-identical JSON.  Witness morphisms are embedded
as flat row-major lists of [re, im] pairs together with their end objects.

Every report comes from ``CheckRunner``: each suite, the equivalence theorem
and teleportation are tables of checks, and the runner alone owns the random
streams, the tolerance and the status.  No other module builds a
``CheckResult`` or a ``VerificationReport``, or writes a status.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvariantViolation, SccckitError
from .morphisms import Morphism
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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          default=_plain) + "\n"

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

# returned by a conditional check on a trial whose antecedent did not hold
VACUOUS = "vacuous"


class Held(NamedTuple):
    """A passing outcome of a whole check that still carries a witness."""

    witness: dict


class Check(NamedTuple):
    """One row of a check table.

    ``fn(rng)`` returns None when the law held and a witness dict when it
    failed; a whole check, whose ``rng`` is None, may return
    ``Held(witness)`` to pass with one.  A
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


class CheckRunner:
    """Runs check tables under one seeding, tolerance and status policy.

    Trial t of the per-trial check at position i of a table draws from the
    numpy stream ``np.random.default_rng([seed, i, t])``, and a failure's
    witness records t, so the report alone names everything needed to replay
    it.  When seed, i and t each fit in 32 bits, ``stream`` hands
    ``default_rng`` a ``PCG64`` over a ``SeedSequence`` of the uint32 array
    [seed, i, t] instead.  That is the list form's stream, since each such
    word is one entropy word of the list form, without its per-call
    coercion of the list; a word outside [0, 2^32) keeps the list form.  A
    whole or expected-fail check runs once, as trial 0, and is called with
    None: it draws nothing, so the runner seeds no stream for it.  A
    ``SccckitError`` raised by any check is that check's failure.
    """

    def __init__(self, trials: int, seed: int, tolerance: float | None = None):
        self.trials = trials
        self.seed = seed
        self.tol = REL_TOL if tolerance is None else tolerance

    def run(self, checks) -> list[CheckResult]:
        return [self._run(idx, check) for idx, check in enumerate(checks)]

    def stream(self, idx: int, trial: int) -> np.random.Generator:
        """The generator of trial ``trial`` of the check at position ``idx``."""
        key = [self.seed, idx, trial]
        if 0 <= min(key) and max(key) < _WORD:
            key = np.random.PCG64(np.random.SeedSequence(
                np.array(key, dtype=np.uint32)))
        return np.random.default_rng(key)

    def report(self, suite: str, model, results) -> VerificationReport:
        return VerificationReport(suite=suite, model=model.name, seed=self.seed,
                                  tolerance=self.tol, trials=self.trials,
                                  results=results)

    def _run(self, idx: int, check: Check) -> CheckResult:
        name, law, kind, fn, conditional = check
        held = 0
        per_trial = kind == PER_TRIAL
        for trial in range(self.trials if per_trial else 1):
            rng = self.stream(idx, trial) if per_trial else None
            try:
                outcome = fn(rng)
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


def _failed(name: str, law: str, witness: dict, trial: int) -> CheckResult:
    witness.setdefault("trial", trial)
    return CheckResult(name, law, "fail", witness)


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
    flat = np.asarray(f.array, dtype=np.complex128).ravel(order="C")
    return {
        "dom": format_object(f.dom),
        "cod": format_object(f.cod),
        "entries": [[float(z.real), float(z.imag)] for z in flat],
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
    """JSON fallback for numpy scalars and arrays living inside witnesses."""
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.complexfloating):
        return [float(x.real), float(x.imag)]
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)!r}")
