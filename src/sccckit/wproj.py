"""Global-phase quotient of a matrix model.

Arrows of the quotient are morphisms taken up to a unit-modulus scalar
factor.  ``WProjModel`` keeps the matrices of its base model: a quotient
arrow is handed around as any representative ``Morphism``, and composition,
tensor, dagger, trace and the block sum are the base's, computed on
representatives.  Only two things change.  Which matrices count as one
arrow: ``equal`` decides it three ways at once through ``wequal``, which
returns the verdict the three share and refuses to answer when they split.
And what value a scalar has: the value of the class of c is its doubled
value c c(dagger), and the scalar constructor picks the nonnegative root as
representative.

A class is its representative; nothing travels with it.  ``wequal`` reads
two representatives and computes each criterion's matrices from them with
the semiring's own kernels: the doubled form f(x)f(dagger) (``lift``, the
semantic identity of the class), f(x)f(lower-star) and the name projector.
It builds no arrow beyond the lower star f_* (and the transpose f* inside
``core.name_array``, which ``core.projector_array`` reads).
"""
from __future__ import annotations

from itertools import product

import numpy as np

from . import core
from .errors import CriterionDisagreement, TypeMismatch
from .models import ModelHandle
from .morphisms import (Morphism, compose, dagger, kernel_array, lower_star,
                        scalar)
from .objects import Gen, UNIT, format_object
from .report import (EXPECTED_FAIL, PER_TRIAL, VACUOUS, WHOLE, Check, Held,
                     serialize_morphism)
from .semirings import nonneg_value, real_value


def lift(f: Morphism) -> np.ndarray:
    """The matrix of the doubled form f (x) f(dagger), the identity of f's
    phase class, byte for byte as ``core.double(f).array``."""
    s = f.semiring
    m, n = f.array.shape
    adjoint = kernel_array(s.involution(f.array.T), s, (n, m))
    return kernel_array(s.kron(f.array, adjoint), s, (m * n, n * m))


def _lowered(f: Morphism) -> np.ndarray:
    """The matrix of f (x) f_*, as ``tensor`` would compute it."""
    s = f.semiring
    m, n = f.array.shape
    return kernel_array(s.kron(f.array, lower_star(f).array), s, (m * m, n * n))


def wequal(f: Morphism, g: Morphism, rel: float | None = None) -> bool:
    """Decide whether f and g are one phase class, three independent ways,
    and return the verdict they share; a split raises
    ``CriterionDisagreement``.

    Criterion 1 compares the doubled forms, criterion 2 f(x)f(lower-star),
    criterion 3 the bipartite projectors.  The representatives' types are
    checked once, here; each criterion then compares two matrices computed
    from them with the semiring's ``approx_equal``.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise TypeMismatch(
            f"cannot compare {format_object(f.dom)}->{format_object(f.cod)} "
            f"with {format_object(g.dom)}->{format_object(g.cod)}")
    approx_equal = f.semiring.approx_equal
    by_double = approx_equal(lift(f), lift(g), rel)
    by_lower = approx_equal(_lowered(f), _lowered(g), rel)
    by_projector = approx_equal(core.projector_array(f),
                                core.projector_array(g), rel)
    if not by_double == by_lower == by_projector:
        raise CriterionDisagreement(
            f"equality criteria disagree: doubled={by_double} "
            f"lower={by_lower} projector={by_projector}")
    return by_double


def canonical_rep(f: Morphism) -> Morphism:
    """Rotate f by a unit scalar so its largest-modulus entry is real >= 0.

    Ties break at the lowest row-major index; the zero morphism is returned
    unchanged.  Models without phases (identity involution, booleans) are
    already canonical.
    """
    if f.semiring.phase is None or f.array.size == 0:
        return f
    flat = np.abs(f.array).ravel(order="C")
    idx = int(np.argmax(flat))
    top = f.array.ravel(order="C")[idx]
    if abs(top) <= 1e-300:
        return f
    phase = top / abs(top)
    return Morphism(f.dom, f.cod, f.array * np.conjugate(phase), f.semiring)


class WProjModel(ModelHandle):
    """The quotient of a base model: its matrices, taken up to phase.

    Scalars of the quotient are the doubled values (nonnegative reals over
    the complex base); the scalar constructor picks the canonical
    nonnegative representative, the square root of the value.
    """

    quotient = True

    def __init__(self, base: ModelHandle):
        if base.quotient:
            # the quotient of a quotient is the quotient itself; do not nest
            raise ValueError("the phase quotient takes a plain base model, "
                             f"not the quotient {base.name}")
        object.__setattr__(self, "name", f"wproj:{base.name}")
        object.__setattr__(self, "semiring", base.semiring)
        self.base = base

    def equal(self, f: Morphism, g: Morphism, rel: float | None = None) -> bool:
        return wequal(f, g, rel)

    def scalar(self, value) -> Morphism:
        r = nonneg_value(value)
        if r is None:
            raise TypeMismatch(f"quotient scalars are nonnegative reals, got {value}")
        return scalar(np.sqrt(r), self.semiring)

    def scalar_value(self, s: Morphism):
        """The doubled value c c(dagger) of the scalar class of c, refused
        unless it is real by ``semirings.real_value``'s rule."""
        if not s.is_scalar:
            raise TypeMismatch(f"not a scalar: {s!r}")
        v = lift(s).item()
        if isinstance(v, complex):
            r = real_value(v)
            if r is None:
                raise TypeMismatch(f"doubled scalar came out non-real: {v}")
            return r
        return v


def prep_state_checks(model, tol) -> list[Check]:
    """Test whether equal doubled forms force equal morphisms, three ways.

    Over complex matrices the answer is no (any nontrivial phase is a
    witness) and the report records that as an expected failure.  On the
    quotient the implication must hold.  Phase-free models are checked both
    on random samples and, at small dimensions, by exhaustive enumeration.
    """
    quotient = model.quotient
    a = Gen("A", 2)

    def eq(x, y) -> bool:
        return model.equal(x, y, tol)

    def pair(f, g, **extra) -> dict:
        return {"f": serialize_morphism(f), "g": serialize_morphism(g), **extra}

    def entry(name, law, dom, implication) -> Check:
        """implication(f, g) -> (antecedent, consequent) for f, g: dom -> A."""
        if not quotient and model.semiring.phase is not None:
            # the axiom must be violated here; exhibit the canonical witness
            def phase_counterexample(_):
                f = Morphism(dom, a, _unit_witness_array(dom == UNIT),
                             model.semiring)
                g = core.scalar_mult(model.scalar(1j), f)
                antecedent, consequent = implication(f, g)
                return antecedent and not consequent, pair(f, g, phase="i")

            return Check(name, law, EXPECTED_FAIL, phase_counterexample)

        def sampled(rng):
            f = model.sample_morphism(rng, dom, a)
            g = core.scalar_mult(model.sample_unit_scalar(rng), f)
            antecedent, consequent = implication(f, g)
            if not antecedent:
                return VACUOUS
            return None if consequent else pair(f, g)

        return Check(name, law, PER_TRIAL, sampled, conditional=True)

    checks = [
        entry("doubles-determine-morphisms",
              "f(x)f(dagger) = g(x)g(dagger)  =>  f = g", a,
              lambda f, g: (eq(core.double(f), core.double(g)), eq(f, g))),
        entry("projectors-determine-names",
              "P_f = P_g  =>  name(f) = name(g)", a,
              lambda f, g: (eq(core.bipartite_projector(f),
                               core.bipartite_projector(g)),
                            eq(core.name(f), core.name(g)))),
        entry("densities-determine-states",
              "psi o psi(dagger) = phi o phi(dagger)  =>  psi = phi", UNIT,
              lambda f, g: (eq(compose(f, dagger(f)), compose(g, dagger(g))),
                            eq(f, g))),
    ]
    if not quotient and model.semiring.phase is None:
        checks.append(Check("doubles-determine-morphisms-exhaustive",
                            "f(x)f(dagger) = g(x)g(dagger)  =>  f = g  (grid)",
                            WHOLE, lambda _: _grid_check(model, tol)))
    return checks


def _unit_witness_array(states_only: bool):
    if states_only:
        return np.array([[1.0], [1.0]]) / np.sqrt(2)
    return np.array([[1.0, 2.0], [3.0, 4.0]])


def _grid_check(model, tol):
    """Exhaustively confirm the implication on small matrices.

    Every matrix over the entry grid 0, 1, 1 + 1 of the semiring is paired
    with every other of the same shape; any pair with equal doubled forms
    must be equal.  A shape's matrices share one type, and so do their
    doubled forms, so each side is stacked once and matrix i is decided
    against its whole shape class with two ``equal_to_each`` calls, one on
    the doubled forms and one on the matrices.  The witness is the first
    failing pair (i, j) in row-major order.
    """
    s = model.semiring
    entries = s.multiples(3)
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2)]
    checked = 0
    for rows, cols in shapes:
        dom = UNIT if cols == 1 else Gen("A", cols)
        cod = UNIT if rows == 1 else Gen("B", rows)
        cells = rows * cols
        mats = [Morphism(dom, cod, np.array(v).reshape(rows, cols), s)
                for v in product(entries, repeat=cells)]
        mat_stack = np.stack([f.array for f in mats])
        double_stack = np.stack([core.double(f).array for f in mats])
        for i, f in enumerate(mats):
            bad = (s.equal_to_each(double_stack[i], double_stack, tol)
                   & ~s.equal_to_each(f.array, mat_stack, tol))
            if bad.any():
                g = mats[int(np.argmax(bad))]
                return {"f": serialize_morphism(f), "g": serialize_morphism(g)}
            checked += len(mats)
    return Held({"pairs_checked": checked})
