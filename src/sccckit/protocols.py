"""Measurement semantics and teleportation.

Classical branching is a freely added product: a tuple of morphisms out of a
common domain, one per outcome.  A measurement is a unitary into a block sum
(``MeasurementSpec``); teleportation composes a Bell state, the outcome arms
of a four-outcome destructive measurement and per-branch unitary
corrections, and is checked end to end against the literal matrix pipeline.
Its six checks are one table that ``report.CheckRunner`` runs as whole
checks, trial 0 of one trial, drawing no random stream; the runner decides
every status and builds the report.

What a teleport computes without reading its input is built in two tiers:

* once per process, as one record (``BellSetup``, which
  ``bell_teleportation_setup`` returns): the teleportation measurement T and
  its corrections (``MeasurementSpec.from_unitary`` checks T), the
  corrections' adjoints beta_i(dagger), the ``cc_map`` legs
  1_Q (x) (p_i o T) of the outcome arms, the receiving unitor
  rho_Q(dagger), the normalized Bell state (1/sqrt(2)) name(1_Q) (its
  name's unfoldings are compared on that build) and the weighted-bit
  collapse witness;
* once per teleport, by the first branch row that compares with it: the
  criterion matrices of the rotated run's target (``wproj.wequal_to``).

``run_teleportation`` reads the record once per teleport, and
``_teleport_branches`` composes only the arrows that depend on the input.
Sharing is sound for the same reason as for the structure maps of ``core``
and ``ortho``: the record is built from no argument, so one build serves
every teleport, every morphism in it is frozen, and nothing downstream
writes to one.  Each is built from the primitives, so a broken primitive is
cached broken and the teleport rows still catch it.  The collapse witness is
a dict that lands in a report, so each caller gets its own dict, with its
own entry and probability lists, copied from the built one.
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
    once per process, with the set-up; each call returns its own copy, down
    to every list.
    """
    built = _bell_setup().collapse
    witness = dict(built)
    for key in ("psi", "phi"):
        witness[key] = {**built[key],
                        "entries": [list(pair) for pair in built[key]["entries"]]}
    for key in ("probabilities_psi", "probabilities_phi"):
        witness[key] = list(built[key])
    return witness


def _collapse_witness() -> dict:
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


class BellSetup(NamedTuple):
    """What every teleport reads but does not compute from its input."""

    t: Morphism            # the measurement unitary T: Q @ Q -> I(+)I(+)I(+)I
    betas: tuple           # the corrections 1, X, Z, XZ
    undo: tuple            # their adjoints beta_i(dagger)
    legs: BranchTuple      # cc_map(Q, arms): 1_Q (x) (p_i o T)
    receive: Morphism      # rho_Q(dagger): Q @ I -> Q
    bell: Morphism         # (1/sqrt(2)) name(1_Q): I -> Q* @ Q
    collapse: dict         # the weighted-bit collapse witness, as built


def bell_teleportation_setup() -> BellSetup:
    """The four-outcome measurement unitary T, the corrections and the
    arrows built from them.

    The corrections are 1, X, Z, XZ; row i of T is the conjugated
    vectorization of correction i scaled by 1/sqrt(2), which makes T unitary
    and T(dagger) o q_i equal to (1/sqrt(2)) name(beta_i).  Built once per
    process (see the module docstring).
    """
    return _bell_setup()


@lru_cache(maxsize=1)
def _bell_setup() -> BellSetup:
    q = qubit()
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    mats = [np.eye(2), x, z, x @ z]
    betas = tuple(Morphism(q, q, m, COMPLEX) for m in mats)
    rows = [core.name(b).array[:, 0].conj() / np.sqrt(2) for b in betas]
    four = ortho.decomposition(UNIT, UNIT, UNIT, UNIT)
    t = Morphism(q @ q, four.whole, np.vstack(rows), COMPLEX)
    spec = MeasurementSpec.from_unitary(t, four)
    arms = BranchTuple(tuple(spec.branch_map(i) for i in range(len(spec))))
    bell = core.scalar_mult(scalar(1 / np.sqrt(2), COMPLEX),
                            core.name(identity(q, COMPLEX)))
    return BellSetup(spec.u, betas, tuple(dagger(b) for b in betas),
                     cc_map(q, arms), dagger(core.rho(q, COMPLEX)), bell,
                     _collapse_witness())


def _teleport_branches(psi: Morphism, setup: BellSetup) -> list[Morphism]:
    """Run the pipeline; returns the raw branch states.

    Pipeline: pair the input with a normalized Bell state, reassociate,
    swap the receiving factor to the front, distribute it over the four
    measurement outcomes (the unitary T) with the classical-communication
    map, and strip the scalar leg with a unitor.  Only the arrows that read
    ``psi`` are composed here; the rest comes from ``setup``.
    """
    q = qubit()
    s = COMPLEX
    paired = compose(tensor(psi, setup.bell), core.lam(UNIT, s))
    joint = compose(core.sigma(q @ q, q, s),
                    compose(core.alpha(q, q, q, s), paired))
    return [compose(setup.receive, compose(m, joint)) for m in setup.legs]


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
    setup = bell_teleportation_setup()
    undo = setup.undo
    outs = _teleport_branches(psi, setup)
    norm = float(np.sqrt(total))
    probs = [float(core.hs_norm_sq(out).array[0, 0].real) for out in outs]
    target = core.scalar_mult(scalar(0.5, COMPLEX), psi)
    # the phase-rotated run and its target at unit weight, where the
    # quotient's equality has no absolute floor to hide behind
    shifted_outs = _teleport_branches(
        core.scalar_mult(scalar(1.0j / norm, COMPLEX), psi), setup)
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
