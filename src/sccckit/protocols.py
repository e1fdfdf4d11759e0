"""Measurement semantics and teleportation.

Classical branching is a freely added product: a tuple of morphisms out of a
common domain, one per outcome.  A measurement is a unitary into a block sum
(``MeasurementSpec``); teleportation composes a Bell state, the outcome arms
of a four-outcome destructive measurement and per-branch unitary
corrections, and is checked end to end against the literal matrix pipeline.
Its six checks are one table that ``report.CheckRunner`` runs as whole
checks, trial 0 of one trial, drawing no random stream; the runner decides
every status and builds the report.

What a teleport computes without reading its input is built once:

* once per process: the teleportation measurement T and its corrections
  (``bell_teleportation_setup``; ``MeasurementSpec.from_unitary`` checks T),
  the normalized Bell state (1/sqrt(2)) name(1_Q) (its name's unfoldings
  are compared on that build) and the weighted-bit collapse witness;
* once per measurement unitary T: the four outcome arms p_i o T, their
  ``cc_map`` legs 1_Q (x) (p_i o T) and the receiving unitor rho_Q(dagger)
  (``_measurement_legs``);
* once per corrections tuple: the adjoints beta_i(dagger) (``_adjoints``);
* once per teleport, by the first branch row that compares with it: the
  criterion matrices of the rotated run's target (``wproj.wequal_to``).

``run_teleportation`` reads the set-up once per teleport, and
``_teleport_branches`` composes only the arrows that depend on the input.
Sharing is sound for the same reason as for the structure maps of ``core``
and ``ortho``: each build is a deterministic function of its key, a key
morphism (or tuple of them) compares and hashes by identity and its array is
frozen, every result is a frozen morphism, and nothing downstream writes to
one.  Each is built from the primitives, so a broken primitive is cached
broken and the teleport rows still catch it.  The collapse witness is a dict
that lands in a report, so each caller gets its own dict, with its own
entry and probability lists, copied from the built one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import core, ortho
from .errors import NotUnitary, TypeMismatch
from .morphisms import (Morphism, compose, dagger, distance, equal, identity,
                        scalar, tensor)
from .objects import ObjectExpr, Oplus, UNIT
from .report import (EXPECTED_FAIL, WHOLE, Check, CheckRunner, Held,
                     VerificationReport, serialize_morphism)
from .semirings import COMPLEX, _within
from .wproj import wequal, wequal_to


@dataclass(frozen=True)
class BranchTuple:
    """Classical outcomes: an ordered tuple of morphisms out of one domain."""

    branches: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise TypeMismatch("a branch tuple needs at least one branch")
        dom = self.branches[0].dom
        for b in self.branches:
            if b.dom != dom:
                raise TypeMismatch("branches must share their domain")

    @property
    def dom(self) -> ObjectExpr:
        return self.branches[0].dom

    def __len__(self) -> int:
        return len(self.branches)

    def __iter__(self):
        return iter(self.branches)


@dataclass(frozen=True)
class MeasurementSpec:
    """A unitary u: A -> (+)_i A_i with its block decomposition."""

    u: Morphism
    decomp: ortho.OplusDecomposition

    @staticmethod
    def from_unitary(u: Morphism, decomp: ortho.OplusDecomposition) -> "MeasurementSpec":
        if u.cod != decomp.whole:
            raise TypeMismatch("unitary codomain does not match the decomposition")
        one_dom = identity(u.dom, u.semiring)
        one_cod = identity(u.cod, u.semiring)
        if not (equal(compose(dagger(u), u), one_dom)
                and equal(compose(u, dagger(u)), one_cod)):
            raise NotUnitary("u(dagger) o u and u o u(dagger) must both be identities")
        return MeasurementSpec(u, decomp)

    def branch_map(self, i: int) -> Morphism:
        """pi_i = p_i o u, the i-th outcome arm."""
        p = ortho.pseudo_projection(self.decomp, i, self.u.semiring)
        return compose(p, self.u)

    def __len__(self) -> int:
        return len(self.decomp)


def cc_map(a: ObjectExpr, bt: BranchTuple) -> BranchTuple:
    """Distribute a quantum factor over classical branches.

    Sends each branch t_i: D -> B_i to 1_a (x) t_i, so the whole tuple maps
    a (x) D into the branches (a (x) B_1, ..., a (x) B_n).  The map discards
    nothing per branch yet has no tuple-level inverse; distributing classical
    data is irreversible without erasure.
    """
    s = bt.branches[0].semiring
    one = identity(a, s)
    return BranchTuple(tuple(tensor(one, t) for t in bt.branches))


def weighted_bit_collapse_witness() -> dict:
    """Two distinct states of I(+)I whose measured branch probabilities agree.

    The destructive measurement of the identity unitary reads off the two
    scalar components; their squared moduli cannot see relative phase, so
    the map from states to probability tuples is not injective and the block
    sum of units is not isomorphic to a classical pair of weights.  Built
    once per process; each call returns its own copy, down to every list.
    """
    built = _weighted_bit_collapse_witness()
    witness = dict(built)
    for key in ("psi", "phi"):
        witness[key] = {**built[key],
                        "entries": [list(pair) for pair in built[key]["entries"]]}
    for key in ("probabilities_psi", "probabilities_phi"):
        witness[key] = list(built[key])
    return witness


@lru_cache(maxsize=1)
def _weighted_bit_collapse_witness() -> dict:
    two = ortho.decomposition(UNIT, UNIT)
    psi = Morphism(UNIT, two.whole, np.array([[1.0], [1.0]]) / np.sqrt(2), COMPLEX)
    phi = Morphism(UNIT, two.whole, np.array([[1.0], [1.0j]]) / np.sqrt(2), COMPLEX)
    ps = [ortho.pseudo_projection(two, i, COMPLEX) for i in range(2)]
    probs_psi = [abs(complex(compose(p, psi).array[0, 0])) ** 2 for p in ps]
    probs_phi = [abs(complex(compose(p, phi).array[0, 0])) ** 2 for p in ps]
    return {
        "psi": serialize_morphism(psi),
        "phi": serialize_morphism(phi),
        "probabilities_psi": probs_psi,
        "probabilities_phi": probs_phi,
        "probabilities_agree": all(_within(abs(p - q), max(p, q), None)
                                   for p, q in zip(probs_psi, probs_phi)),
        "states_equal": equal(psi, phi),
        "states_phase_equivalent": wequal(psi, phi),
    }


def qubit() -> ObjectExpr:
    return Oplus(UNIT, UNIT)


def bell_teleportation_setup() -> tuple[Morphism, tuple[Morphism, ...]]:
    """The four-outcome measurement unitary T and the correction unitaries.

    The corrections are 1, X, Z, XZ; row i of T is the conjugated
    vectorization of correction i scaled by 1/sqrt(2), which makes T unitary
    and T(dagger) o q_i equal to (1/sqrt(2)) name(beta_i).  Built once per
    process (see the module docstring).
    """
    return _bell_teleportation_setup()


@lru_cache(maxsize=1)
def _bell_teleportation_setup() -> tuple[Morphism, tuple[Morphism, ...]]:
    q = qubit()
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    mats = [np.eye(2), x, z, x @ z]
    betas = tuple(Morphism(q, q, m, COMPLEX) for m in mats)
    rows = [core.name(b).array[:, 0].conj() / np.sqrt(2) for b in betas]
    four = ortho.decomposition(UNIT, UNIT, UNIT, UNIT)
    t = Morphism(q @ q, four.whole, np.vstack(rows), COMPLEX)
    return MeasurementSpec.from_unitary(t, four).u, betas


@lru_cache(maxsize=1)
def _bell_state() -> Morphism:
    """(1/sqrt(2)) name(1_Q): I -> Q* @ Q, built once per process."""
    return core.scalar_mult(scalar(1 / np.sqrt(2), COMPLEX),
                            core.name(identity(qubit(), COMPLEX)))


class _MeasurementLegs(NamedTuple):
    """The arrows of a teleport through one measurement unitary T that do
    not read the input psi."""

    arms: BranchTuple      # p_i o T, one per outcome
    legs: BranchTuple      # cc_map(Q, arms): 1_Q (x) (p_i o T)
    receive: Morphism      # rho_Q(dagger): Q @ I -> Q


@lru_cache(maxsize=64)
def _measurement_legs(t: Morphism) -> _MeasurementLegs:
    """The arms, legs and receiving unitor of a teleport through ``t``,
    built once per unitary (see the module docstring)."""
    spec = MeasurementSpec(t, ortho.decomposition(UNIT, UNIT, UNIT, UNIT))
    arms = BranchTuple(tuple(spec.branch_map(i) for i in range(len(spec))))
    q = qubit()
    return _MeasurementLegs(arms, cc_map(q, arms), dagger(core.rho(q, COMPLEX)))


@lru_cache(maxsize=64)
def _adjoints(fs: tuple[Morphism, ...]) -> tuple[Morphism, ...]:
    """f(dagger) of each f, built once per tuple (see the module docstring)."""
    return tuple(dagger(f) for f in fs)


def _teleport_branches(psi: Morphism, t: Morphism) -> list[Morphism]:
    """Run the pipeline; returns the raw branch states.

    Pipeline: pair the input with a normalized Bell state, reassociate,
    swap the receiving factor to the front, distribute it over the four
    measurement outcomes (the unitary ``t``) with the classical-communication
    map, and strip the scalar leg with a unitor.  Only the arrows that read
    ``psi`` are composed here; the rest comes from ``_measurement_legs``.
    """
    q = qubit()
    s = COMPLEX
    paired = compose(tensor(psi, _bell_state()), core.lam(UNIT, s))
    joint = compose(core.sigma(q @ q, q, s),
                    compose(core.alpha(q, q, q, s), paired))
    _, legs, receive = _measurement_legs(t)
    return [compose(receive, compose(m, joint)) for m in legs]


def run_teleportation(psi: Morphism | None = None,
                      model=None, seed: int = 0) -> VerificationReport:
    """Teleport a state and certify every branch, including phase classes.

    Each corrected branch must equal the input scaled by 1/2 (the two
    1/sqrt(2) normalizations), each branch probability must be a quarter of
    the input weight, the probabilities must sum to that weight, and a
    phase-rotated input must land in the same phase class per branch.  The
    pipeline runs once; the checks are one table for ``CheckRunner``, and
    every verdict is relative to the input's weight, so a state of any
    weight is judged alike.
    """
    if model is None:
        from .models import fdhilb
        model = fdhilb()
    if model.semiring is not COMPLEX:
        raise TypeMismatch("teleportation runs over the complex model")
    if psi is None:
        psi = Morphism(UNIT, qubit(), np.array([[1.0], [0.0]]), COMPLEX)
    if psi.dom != UNIT or psi.cod != qubit():
        raise TypeMismatch("the input must be a state of I(+)I")
    total = float(core.hs_norm_sq(psi).array[0, 0].real)
    if not total > 0:
        raise TypeMismatch(f"the input must have positive weight, got {total}")

    runner = CheckRunner(trials=1, seed=seed)
    tol = runner.tol
    t, betas = bell_teleportation_setup()
    undo = _adjoints(betas)
    outs = _teleport_branches(psi, t)
    norm = float(np.sqrt(total))
    probs = [float(core.hs_norm_sq(out).array[0, 0].real) for out in outs]
    target = core.scalar_mult(scalar(0.5, COMPLEX), psi)
    # the phase-rotated run and its target at unit weight, where the
    # quotient's equality has no absolute floor to hide behind
    shifted_outs = _teleport_branches(
        core.scalar_mult(scalar(1.0j / norm, COMPLEX), psi), t)
    unit_target = core.scalar_mult(scalar(0.5 / norm, COMPLEX), psi)
    # computed when a row first asks, so an error fails that row; symmetric in f, g
    in_target_class = wequal_to(unit_target, tol)

    def branch(i):
        def check(_):
            corrected = compose(undo[i], outs[i])
            phase_ok = in_target_class(compose(undo[i], shifted_outs[i]))
            witness = {"output": serialize_morphism(outs[i]),
                       "corrected": serialize_morphism(corrected),
                       "probability": probs[i],
                       "phase_class_stable": phase_ok}
            ok = phase_ok and distance(corrected, target) <= tol * norm
            return Held(witness) if ok else witness

        return Check(f"branch-{i}",
                     "corrected branch = (1/2) . input, robust to input phase",
                     WHOLE, check)

    def conservation(_):
        witness = {"probabilities": probs, "total": total}
        ok = (all(abs(p - total / 4) <= tol * total for p in probs)
              and abs(sum(probs) - total) <= tol * total)
        return Held(witness) if ok else witness

    def collapse(_):
        # the collapse is expected only when the probabilities agree on two
        # states that are not even phase-equivalent
        witness = weighted_bit_collapse_witness()
        return (witness["probabilities_agree"]
                and not witness["states_phase_equivalent"]), witness

    table = [branch(i) for i in range(4)] + [
        Check("probability-conservation",
              "each branch weighs ||psi||/4 and the four weigh ||psi|| together",
              WHOLE, conservation),
        Check("weighted-bit-collapse",
              "branch probabilities cannot distinguish relative phase",
              EXPECTED_FAIL, collapse),
    ]
    return runner.report("teleport", model, runner.run(table))
