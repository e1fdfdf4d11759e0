"""Global-phase quotient of a matrix model.

Arrows of the quotient are morphisms taken up to a unit-modulus scalar
factor.  Concretely a ``WMorphism`` is a representative together with its
doubled form f(x)f(dagger); the doubled form is the semantic identity of the
arrow, the representative is bookkeeping.  ``lift`` stores only the
representative: the doubled form is computed on first read and cached on
the instance, since most intermediate arrows are never compared.  A doubled
form given explicitly at construction is kept as given, so a tampered class
still surfaces as a criterion disagreement in ``wequal``.  ``WProjModel`` is a
``ModelHandle`` whose ``rep``/``lift`` read and build ``WMorphism``s, so
composition, tensor, dagger, trace and the block sum are the base model's,
computed on representatives.  It overrides only what changes in the
quotient: scalars and equality.  Equality is decided three ways at once and
the answers must agree or we refuse to answer.  The value of a quotient
scalar is its doubled value c c(dagger): ``WProjModel.scalar_value`` reads
it from the doubled form when the instance already holds one (computed or
given), and otherwise from the same two kernel calls on the 1 x 1
representative, without building the doubled morphism.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import core
from .errors import CriterionDisagreement, TypeMismatch
from .models import ModelHandle
from .morphisms import (Morphism, equal, lower_star, scalar, scalar_value,
                        tensor)
from .objects import Gen, ObjectExpr, UNIT, format_object
from .report import (EXPECTED_FAIL, PER_TRIAL, VACUOUS, WHOLE, Check, Held,
                     serialize_morphism)


@dataclass(frozen=True, eq=False, init=False)
class WMorphism:
    """A phase class: representative plus its doubled form.

    ``doubled`` is ``tensor(rep, dagger(rep))``, computed from ``rep`` on
    first read and then cached on the instance.  One passed as
    ``WMorphism(rep, doubled)`` (or through ``dataclasses.replace``) is kept
    as given and never recomputed, so a corrupted pipeline shows up as a
    criterion disagreement instead of being silently repaired.
    """

    rep: Morphism
    doubled: Morphism

    def __init__(self, rep: Morphism, doubled: Morphism | None = None):
        object.__setattr__(self, "rep", rep)
        if doubled is not None:
            object.__setattr__(self, "doubled", doubled)

    def __getattr__(self, attr: str):
        # reached only while ``doubled`` is unset: compute it once
        if attr != "doubled":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {attr!r}")
        doubled = core.double(self.rep)
        object.__setattr__(self, "doubled", doubled)
        return doubled

    @property
    def dom(self) -> ObjectExpr:
        return self.rep.dom

    @property
    def cod(self) -> ObjectExpr:
        return self.rep.cod

    def __repr__(self) -> str:
        return f"WMorphism({self.rep!r})"


def lift(f: Morphism) -> WMorphism:
    """Send a morphism to its phase class (its doubled form comes on demand)."""
    return WMorphism(f)


@dataclass(frozen=True)
class WEqualResult:
    """Per-criterion breakdown of a phase-class equality test."""

    by_double: bool
    by_lower: bool
    by_projector: bool

    @property
    def equal(self) -> bool:
        return self.by_double

    @property
    def agree(self) -> bool:
        return self.by_double == self.by_lower == self.by_projector


def wequal(a: WMorphism, b: WMorphism, rel: float | None = None) -> WEqualResult:
    """Decide a = b three independent ways; the answers must coincide.

    Criterion 1 compares the cached doubled forms, criterion 2 compares
    f(x)f(lower-star), criterion 3 compares the bipartite projectors; all are
    recomputed from the representatives except the first, so a tampered cache
    surfaces as a disagreement.
    """
    if a.dom != b.dom or a.cod != b.cod:
        raise TypeMismatch(
            f"cannot compare {format_object(a.dom)}->{format_object(a.cod)} "
            f"with {format_object(b.dom)}->{format_object(b.cod)}")
    by_double = equal(a.doubled, b.doubled, rel)
    by_lower = equal(tensor(a.rep, lower_star(a.rep)),
                     tensor(b.rep, lower_star(b.rep)), rel)
    by_projector = equal(core.bipartite_projector(a.rep),
                         core.bipartite_projector(b.rep), rel)
    result = WEqualResult(by_double, by_lower, by_projector)
    if not result.agree:
        raise CriterionDisagreement(
            f"equality criteria disagree: doubled={by_double} "
            f"lower={by_lower} projector={by_projector}")
    return result


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
    """The quotient of a base model: arrows are ``WMorphism`` phase classes.

    Scalars of the quotient are the doubled values (nonnegative reals over
    the complex base); scalar constructors pick the canonical nonnegative
    representative, the square root of the value.
    """

    quotient = True

    def __init__(self, base: ModelHandle):
        if base.quotient:
            # its rep/lift would bypass the inner quotient's; refuse, do not nest
            raise ValueError("the phase quotient takes a plain base model, "
                             f"not the quotient {base.name}")
        object.__setattr__(self, "name", f"wproj:{base.name}")
        object.__setattr__(self, "semiring", base.semiring)
        self.base = base

    def rep(self, x: WMorphism) -> Morphism:
        return x.rep

    lift = staticmethod(lift)

    def scalar(self, value) -> WMorphism:
        v = complex(value)
        if abs(v.imag) > 1e-9 or v.real < -1e-9:
            raise TypeMismatch(f"quotient scalars are nonnegative reals, got {value}")
        return lift(scalar(np.sqrt(max(v.real, 0.0)), self.semiring))

    def equal(self, f: WMorphism, g: WMorphism, rel: float | None = None) -> bool:
        return wequal(f, g, rel).equal

    def scalar_value(self, s: WMorphism):
        """The doubled value c c(dagger) of the scalar class of c.

        A doubled form already on the instance, computed or given, is the
        one read.  Otherwise the value is the single entry of the kernels
        ``core.double`` runs, applied to the 1 x 1 representative and
        coerced to the semiring's dtype as it would coerce them, so no
        doubled morphism is built just to read one entry.
        """
        a = s.rep.array
        if "doubled" in vars(s) or a.shape != (1, 1):
            v = scalar_value(s.doubled)
        else:
            ring = s.rep.semiring
            conj = np.asarray(ring.involution(a.T), dtype=ring.dtype)
            v = np.asarray(ring.kron(a, conj), dtype=ring.dtype).item()
        if np.issubdtype(type(v), np.complexfloating) or isinstance(v, complex):
            if abs(v.imag) > 1e-9:
                raise TypeMismatch(f"doubled scalar came out non-real: {v}")
            return float(v.real)
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

    def via_rep(build, f):
        return model.lift(build(model.rep(f)))

    def scaled(u, f):
        return model.lift(core.scalar_mult(model.rep(u), model.rep(f)))

    def pair(f, g, **extra) -> dict:
        return {"f": serialize_morphism(f), "g": serialize_morphism(g), **extra}

    def entry(name, law, dom, implication) -> Check:
        """implication(f, g) -> (antecedent, consequent) for f, g: dom -> A."""
        if not quotient and model.semiring.phase is not None:
            # the axiom must be violated here; exhibit the canonical witness
            def phase_counterexample(_):
                f = model.morphism(dom, a, _unit_witness_array(dom == UNIT))
                g = scaled(model.scalar(1j), f)
                antecedent, consequent = implication(f, g)
                return antecedent and not consequent, pair(f, g, phase="i")

            return Check(name, law, EXPECTED_FAIL, phase_counterexample)

        def sampled(rng):
            f = model.sample_morphism(rng, dom, a)
            g = scaled(model.sample_unit_scalar(rng), f)
            antecedent, consequent = implication(f, g)
            if not antecedent:
                return VACUOUS
            return None if consequent else pair(f, g)

        return Check(name, law, PER_TRIAL, sampled, conditional=True)

    checks = [
        entry("doubles-determine-morphisms",
              "f(x)f(dagger) = g(x)g(dagger)  =>  f = g", a,
              lambda f, g: (eq(model.tensor(f, model.dagger(f)),
                               model.tensor(g, model.dagger(g))), eq(f, g))),
        entry("projectors-determine-names",
              "P_f = P_g  =>  name(f) = name(g)", a,
              lambda f, g: (eq(via_rep(core.bipartite_projector, f),
                               via_rep(core.bipartite_projector, g)),
                            eq(via_rep(core.name, f), via_rep(core.name, g)))),
        entry("densities-determine-states",
              "psi o psi(dagger) = phi o phi(dagger)  =>  psi = phi", UNIT,
              lambda f, g: (eq(model.compose(f, model.dagger(f)),
                               model.compose(g, model.dagger(g))), eq(f, g))),
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
    must be equal.
    """
    entries = model.semiring.multiples(3)
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2)]
    checked = 0
    for rows, cols in shapes:
        dom = UNIT if cols == 1 else Gen("A", cols)
        cod = UNIT if rows == 1 else Gen("B", rows)
        cells = rows * cols
        mats = [model.morphism(dom, cod, np.array(v).reshape(rows, cols))
                for v in product(entries, repeat=cells)]
        doubles = [core.double(f) for f in mats]
        for i, f in enumerate(mats):
            for j, g in enumerate(mats):
                if (model.equal(doubles[i], doubles[j], tol)
                        and not model.equal(f, g, tol)):
                    return {"f": serialize_morphism(f), "g": serialize_morphism(g)}
                checked += 1
    return Held({"pairs_checked": checked})
