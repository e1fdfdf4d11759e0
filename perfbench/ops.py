"""Workload definitions and per-op correctness checks for the sccckit benchmark.

An op is one ``sccckit.cli.main(argv)`` call.  Every op's argv is derived
from the workload seed, so the same seed gives the same op list in every
process.  The program under test sees only the generated argv.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

_SCCC = {
    "yanking", "unit-coherence", "structural-isos-unitary", "name-unfoldings-agree",
    "name-of-identity", "scalar-through-compose", "scalar-through-tensor",
    "tensor-interchange", "dagger-involutive-contravariant", "dagger-factorization",
    "swap-naturality", "scalar-commutativity", "inner-product-two-routes",
    "norm-scalar-positive", "inner-product-on-states", "state-density-identity",
    "born-probability-loop", "partial-trace-of-swap", "trace-counts-dimension",
    "partial-trace-splits-identity",
}
_ORTHO = {
    "zero-through-zero-object", "zero-annihilates", "block-sum-commutes-with-dagger",
    "block-sum-functorial", "additive-isos-unitary", "distributivity-natural",
    "pseudo-maps-orthonormal", "pseudo-injection-adjoint", "pseudo-projection-swaps",
    "pseudo-projection-natural", "pseudo-projection-reassociates", "blocks-reassemble",
    "derived-sum-is-entrywise", "derived-sum-matches-biproduct-sum",
    "derived-sum-commutative-monoid",
}
_WPROJ = {
    "equality-criteria-agree", "quotient-respects-compose", "quotient-respects-tensor",
    "quotient-dagger-involutive", "quotient-yanking", "quotient-interchange",
    "canonical-representative-idempotent", "canonical-representative-phase-free",
    "canonical-representative-in-class", "quotient-scalars-nonnegative",
}
_PREP_STATE = {"doubles-determine-morphisms", "projectors-determine-names",
               "densities-determine-states"}

# The checks each (suite, model) report holds, whatever the seed, trials or
# --nu: a report missing one of them, or holding another, is wrong.
CHECKS = {
    ("teleport", "fdhilb"): {"branch-0", "branch-1", "branch-2", "branch-3",
                             "probability-conservation", "weighted-bit-collapse"},
    ("sccc", "fdhilb"): _SCCC | {"double-ignores-phase", "phase-witnesses"},
    ("sccc", "rel"): _SCCC,
    ("ortho", "fdhilb"): _ORTHO | {"unitary-components-orthonormal",
                                   "block-sum-on-phase-classes"},
    ("ortho", "rel"): _ORTHO,
    ("prep-state", "weights"): _PREP_STATE | {"doubles-determine-morphisms-exhaustive"},
    ("prep-state", "wproj:fdhilb"): _PREP_STATE,
    ("wproj", "wproj:fdhilb"): _WPROJ | {"quotient-separates-weight-from-phase"},
    ("wproj", "wproj:rel"): _WPROJ,
    ("born", "wproj:fdhilb"): {
        "valuation-splits-binary", "valuation-splits-ternary", "valuation-fixed-by-dagger",
        "valuation-kills-zero", "valuation-additive-on-blocks", "scalar-sum-associative",
        "scalar-sum-commutative", "scalar-sum-distributive", "valuation-root-roundtrip",
        "scalar-sum-as-block-valuation", "diagonal-axiom", "diagonal-axiom-derived-sum",
        "trace-linearity", "sum-trace-vs-block-trace", "norm-block-decomposition",
        "one-plus-one", "norm-scalar-has-positive-root"},
    ("equivalence", "wproj:fdhilb"): {"axiom-legs-agree",
                                      "axiom-legs-agree-corrupted-control"},
}

# Checks that are documented to report "expected-fail": the library's own
# negative controls.  Every other check of every op must read "pass".
EXPECTED_FAILS = {
    ("ortho", "fdhilb"): {"block-sum-on-phase-classes"},
    ("equivalence", "wproj:fdhilb"): {"axiom-legs-agree-corrupted-control"},
    ("teleport", "fdhilb"): {"weighted-bit-collapse"},
}

# Defaults of the CLI flags the benchmark leaves unset; the report echoes them.
DEFAULT_MODEL = "fdhilb"
DEFAULT_TRIALS = 100

NU_CYCLE = ("1", "1/2", "2")
TELEPORTS_PER_RUN = 100
REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    argv: tuple
    suite: str
    model: str
    seed: int
    trials: int
    state: tuple | None = None      # teleport input amplitudes (complex pair)


def verify_op(suite: str, model: str, seed: int, trials: int | None = None,
              max_dim: int | None = None, nu: str | None = None) -> Op:
    argv = ["verify", suite, "--model", model, "--seed", str(seed)]
    if trials is not None:
        argv += ["--trials", str(trials)]
    if max_dim is not None:
        argv += ["--max-dim", str(max_dim)]
    if nu is not None:
        argv += ["--nu", nu]
    argv += ["--json", "-"]
    return Op(tuple(argv), suite, model, seed,
              DEFAULT_TRIALS if trials is None else trials)


def teleport_op(a: complex, b: complex, seed: int) -> Op:
    literal = json.dumps([[a.real, a.imag], [b.real, b.imag]])
    argv = ("protocol", "teleport", "--state", literal, "--seed", str(seed),
            "--json", "-")
    # The protocol certifies one input state, and its report says trials=1.
    return Op(argv, "teleport", DEFAULT_MODEL, seed, 1, (a, b))


def _stream(workload: str, seed: int, label) -> random.Random:
    return random.Random(f"{workload}:{seed}:{label}")


def _op_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _teleport_state(rng: random.Random) -> tuple[complex, complex]:
    """Unnormalized complex Gaussian amplitudes; about 1 in 10 on a basis vector."""
    def gauss() -> complex:
        return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))

    a, b = gauss(), gauss()
    if rng.random() < 0.1:
        return (a, 0j) if rng.random() < 0.5 else (0j, b)
    return a, b


def _teleport_ops(seed: int) -> list[Op]:
    rng = _stream("teleport", seed, "ops")
    return [teleport_op(*_teleport_state(rng), _op_seed(rng))
            for _ in range(TELEPORTS_PER_RUN)]


def _plain_suites_ops(seed: int) -> list[Op]:
    rng = _stream("plain-suites", seed, "ops")
    return [
        verify_op("sccc", "fdhilb", _op_seed(rng), trials=200, max_dim=8),
        verify_op("sccc", "rel", _op_seed(rng), trials=200, max_dim=6),
        verify_op("ortho", "fdhilb", _op_seed(rng)),
        verify_op("ortho", "rel", _op_seed(rng)),
        verify_op("prep-state", "weights", _op_seed(rng)),
    ]


def _phase_quotient_ops(seed: int) -> list[Op]:
    rng = _stream("phase-quotient", seed, "ops")
    return [
        verify_op("wproj", "wproj:fdhilb", _op_seed(rng)),
        verify_op("wproj", "wproj:rel", _op_seed(rng)),
        verify_op("born", "wproj:fdhilb", _op_seed(rng),
                  nu=NU_CYCLE[seed % len(NU_CYCLE)]),
        verify_op("prep-state", "wproj:fdhilb", _op_seed(rng)),
        verify_op("equivalence", "wproj:fdhilb", _op_seed(rng)),
    ]


def _warmup(workload: str, suite: str, model: str):
    def op(seed: int) -> Op:
        if suite == "teleport":
            return teleport_op(0.6 + 0.1j, -0.3 + 0.2j, _op_seed(_stream(workload, seed, "warmup")))
        return verify_op(suite, model, _op_seed(_stream(workload, seed, "warmup")))
    return op


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple          # every model the workload names; set-up resolves them
    ops: object            # seed -> list[Op], the op list one run repeats
    warmup: object         # seed -> Op, run once untimed before measuring


WORKLOADS = {
    w.name: w for w in (
        Workload("teleport", ("fdhilb",), _teleport_ops,
                 _warmup("teleport", "teleport", "fdhilb")),
        Workload("plain-suites", ("fdhilb", "rel", "weights"), _plain_suites_ops,
                 _warmup("plain-suites", "prep-state", "weights")),
        Workload("phase-quotient", ("wproj:fdhilb", "wproj:rel"), _phase_quotient_ops,
                 _warmup("phase-quotient", "equivalence", "wproj:fdhilb")),
    )
}


# ---------------------------------------------------------------------------
# Correctness of one op's output.

def check_output(op: Op, exit_code: int, text: str) -> list[str]:
    """Every reason the op's output is wrong; an empty list means correct."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        report = json.loads(text)
    except ValueError as exc:
        return problems + [f"output is not JSON: {exc}"]
    problems += _check_echo(op, report)
    problems += _check_verdicts(op, report)
    if op.state is not None:
        problems += _check_teleport(op.state, report)
    return problems


def _check_echo(op: Op, report: dict) -> list[str]:
    expected = {"suite": op.suite, "model": op.model, "seed": op.seed,
                "trials": op.trials}
    return [f"report echoes {key}={report.get(key)!r}, argv says {value!r}"
            for key, value in expected.items() if report.get(key) != value]


def _check_verdicts(op: Op, report: dict) -> list[str]:
    results = report.get("results") or []
    names = [str(r.get("check_name")) for r in results]
    want_names = CHECKS[(op.suite, op.model)]
    expected_fails = EXPECTED_FAILS.get((op.suite, op.model), set())
    problems = [f"check {name!r} is missing" for name in sorted(want_names - set(names))]
    problems += [f"check {name!r} is not expected" for name in sorted(set(names) - want_names)]
    problems += [f"check {name!r} appears {names.count(name)} times"
                 for name in sorted(set(names)) if names.count(name) > 1]
    for r in results:
        name = r.get("check_name")
        want = "expected-fail" if name in expected_fails else "pass"
        if r.get("status") != want:
            problems.append(f"check {name!r} is {r.get('status')!r}, want {want!r}")
    return problems


def _check_teleport(state: tuple, report: dict) -> list[str]:
    """Recompute each branch from the input state with plain arithmetic."""
    a, b = state
    weight = abs(a) ** 2 + abs(b) ** 2
    branches = [r for r in report.get("results", [])
                if str(r.get("check_name", "")).startswith("branch-")]
    if len(branches) != 4:
        return [f"teleport report has {len(branches)} branches, want 4"]
    problems = []
    probs = []
    for r in branches:
        w = r.get("witness") or {}
        p = w.get("probability")
        if not isinstance(p, (int, float)):
            problems.append(f"{r['check_name']}: no probability")
            continue
        probs.append(p)
        if not math.isclose(p, weight / 4, rel_tol=REL_TOL, abs_tol=0.0):
            problems.append(f"{r['check_name']}: probability {p!r}, want {weight / 4!r}")
        if w.get("phase_class_stable") is not True:
            problems.append(f"{r['check_name']}: phase class not stable")
        entries = (w.get("corrected") or {}).get("entries") or []
        got = [complex(re, im) for re, im in entries]
        want = [a / 2, b / 2]
        if len(got) != 2 or any(abs(g - t) > REL_TOL * math.sqrt(weight)
                                for g, t in zip(got, want)):
            problems.append(f"{r['check_name']}: corrected branch {got!r}, want {want!r}")
    if len(probs) == 4 and not math.isclose(sum(probs), weight, rel_tol=REL_TOL,
                                            abs_tol=0.0):
        problems.append(f"branch probabilities sum to {sum(probs)!r}, want {weight!r}")
    return problems
