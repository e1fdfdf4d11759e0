"""Randomized law suites over the concrete models.

Every suite's check table but the Born legs (in ``born``) is built here,
none in a model module.  Each suite turns a family of categorical laws into
a table of seeded property checks against a model facade;
``report.CheckRunner`` runs the table and folds the outcomes into a
VerificationReport.  Check order is load-bearing: the runner seeds each
per-trial check's random stream with (seed, position in the table, trial),
so inserting a check in the middle of a suite shifts every stream after it.

Every table is written once for every model and computes on plain
matrices: a model only samples, decides equality and reads scalars.  The
phase quotient keeps the matrices of its base, so a composite of
representatives represents the composite of their classes, and deciding a
law's two sides with ``model.equal`` checks the law for classes.  On a
plain model ``model.equal`` compares the matrices themselves.

Each table states its equations through one ``report.Law`` bound to the
model and the run's tolerance: ``law(lhs, rhs, witness)`` returns when the
sides are equal and otherwise ends the row, failed, with the witness.  A
row that decides without ``model.equal`` (a sign threshold, a comparison
of representatives, wequal's criteria) returns its witness itself;
``tests/test_law_sink.py`` lists those rows with their reasons.
A row may also test a sign after its laws, as ``born-probability-loop`` does.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np

from . import born, core, ortho
from .models import ModelHandle
from .morphisms import (Morphism, compose, dagger, direct_sum, equal,
                        identity, lower_star, scalar, scalar_value, star,
                        tensor, zeros)
from .objects import Gen, Oplus, Tensor, UNIT, dim, dual, format_object
from .ortho import copairing, pairing, random_unitary
from .report import (EXPECTED_FAIL, PER_TRIAL, VACUOUS, WHOLE, Check,
                     CheckRunner, Held, Law, VerificationReport,
                     serialize_morphism)
from .semirings import _within, negligible, nonneg_value
from .wproj import WProjModel, canonical_rep, wequal_to


SUITE_NAMES = ("sccc", "wproj", "prep-state", "ortho", "born", "equivalence")


def run_suite(suite: str, model, trials: int = 100, seed: int = 0,
              tolerance: float | None = None, max_dim: int = 4,
              nu=Fraction(1)) -> VerificationReport:
    """Run one named suite against a model and return its report."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose one of {SUITE_NAMES}")
    if suite == "wproj" and not model.quotient:
        model = WProjModel(model)
    runner = CheckRunner(trials, seed, tolerance)
    tol = runner.tol
    table = {
        "sccc": lambda: _sccc_checks(model, tol, max_dim),
        "wproj": lambda: _wproj_checks(model, tol, max_dim),
        "prep-state": lambda: prep_state_checks(model, tol),
        "ortho": lambda: _ortho_checks(model, tol, max_dim),
        "born": lambda: _born_checks(model, tol, born.Nu(nu)),
        "equivalence": lambda: born.equivalence_checks(model, trials, seed, tol),
    }[suite]()
    return runner.report(suite, model, runner.run(table))


def _gen(rng, label: str, hi: int) -> Gen:
    return Gen(label, int(rng.integers(1, hi + 1)))


def _structured_object(rng, max_dim: int, label: str = "A"):
    """A small random object mixing leaves, duals, sums and tensors."""
    hi = max(1, min(3, max_dim))
    roll = int(rng.integers(0, 6))
    if roll == 0:
        return UNIT
    if roll == 1:
        return dual(_gen(rng, label, hi))
    if roll == 2:
        return Oplus(_gen(rng, label, hi), _gen(rng, label + "2", hi))
    if roll == 3:
        return Tensor(_gen(rng, label, 2), _gen(rng, label + "2", 2))
    return _gen(rng, label, max(1, min(max_dim, 4)))


def _yanking_objects(max_dim: int):
    objs = [Gen("A", d) for d in range(1, max_dim + 1)]
    objs.append(Oplus(Gen("A", 2), UNIT))
    objs.append(Tensor(Gen("A", 2), Gen("B", 2)))
    objs.append(dual(Gen("A", min(3, max_dim))))
    return objs


def _obj_witness(a) -> dict:
    return {"object": format_object(a)}


# -- the sccc suite ------------------------------------------------------------

def _sccc_checks(model: ModelHandle, tol, max_dim) -> list[Check]:
    s = model.semiring
    draw = model.sample_morphism
    law = Law(model, tol)

    def yanking(_):
        for a in _yanking_objects(max_dim):
            law(core.yanking_composite(a, s), identity(a, s), lambda: _obj_witness(a))

    def unit_coherence(_):
        for a in _yanking_objects(max_dim):
            law(core.unit(dual(a), s),
                compose(core.sigma(dual(a), a, s), core.unit(a, s)),
                lambda: _obj_witness(a))

    def isos_unitary(rng):
        a = _structured_object(rng, max_dim, "A")
        b = _structured_object(rng, max_dim, "B")
        c = _gen(rng, "C", 2)
        obj = format_object(a)
        for tag, iso in (("lam", core.lam(a, s)), ("rho", core.rho(a, s)),
                         ("alpha", core.alpha(a, b, c, s)),
                         ("sigma", core.sigma(a, b, s))):
            witness = {"iso": tag, "object": obj}
            law(compose(dagger(iso), iso), identity(iso.dom, s), witness)
            law(compose(iso, dagger(iso)), identity(iso.cod, s), witness)

    def name_unfoldings(rng):
        a, b = _gen(rng, "A", 3), _gen(rng, "B", 3)
        f = draw(rng, a, b)
        law(core.name(f), compose(tensor(identity(dual(a), s), f), core.unit(a, s)))
        law(core.name(f), compose(tensor(star(f), identity(b, s)), core.unit(b, s)))

    def name_identity(_):
        for d in range(1, max_dim + 1):
            a = Gen("A", d)
            law(core.name(identity(a, s)), core.unit(a, s), lambda: _obj_witness(a))

    def scalars(rng):
        return draw(rng, UNIT, UNIT), draw(rng, UNIT, UNIT)

    def scalar_compose(rng):
        u, v = scalars(rng)
        a, b, c = _gen(rng, "A", 3), _gen(rng, "B", 3), _gen(rng, "C", 3)
        f = draw(rng, b, c)
        g = draw(rng, a, b)
        law(compose(core.scalar_mult(u, f), core.scalar_mult(v, g)),
            core.scaled(scalar_value(compose(u, v)), compose(f, g)))

    def scalar_tensor(rng):
        u, v = scalars(rng)
        f = draw(rng, _gen(rng, "A", 3), _gen(rng, "B", 3))
        g = draw(rng, _gen(rng, "C", 3), _gen(rng, "D", 3))
        law(tensor(core.scalar_mult(u, f), core.scalar_mult(v, g)),
            core.scaled(scalar_value(compose(u, v)), tensor(f, g)))

    def interchange(rng):
        a, b, c = _gen(rng, "A", 3), _gen(rng, "B", 3), _gen(rng, "C", 3)
        d, e, x = _gen(rng, "D", 3), _gen(rng, "E", 3), _gen(rng, "F", 3)
        f = draw(rng, b, c)
        h = draw(rng, a, b)
        g = draw(rng, e, x)
        k = draw(rng, d, e)
        law(compose(tensor(f, g), tensor(h, k)), tensor(compose(f, h), compose(g, k)))

    def dagger_laws(rng):
        a, b, c = _gen(rng, "A", 3), _gen(rng, "B", 3), _gen(rng, "C", 3)
        f = draw(rng, a, b)
        g = draw(rng, b, c)
        law(dagger(dagger(f)), f, {"law": "involution"})
        law(dagger(compose(g, f)), compose(dagger(f), dagger(g)),
            {"law": "contravariance"})

    def dagger_factors(rng):
        f = draw(rng, _gen(rng, "A", 3), _gen(rng, "B", 3))
        law(dagger(f), star(lower_star(f)), {"route": "star o lower_star"})
        law(dagger(f), lower_star(star(f)), {"route": "lower_star o star"})

    def sigma_natural(rng):
        a, b = _gen(rng, "A", 3), _gen(rng, "B", 3)
        c, d = _gen(rng, "C", 3), _gen(rng, "D", 3)
        f = draw(rng, a, b)
        g = draw(rng, c, d)
        law(compose(core.sigma(b, d, s), tensor(f, g)),
            compose(tensor(g, f), core.sigma(a, c, s)))

    def scalar_comm(rng):
        u, v = scalars(rng)
        law(compose(u, v), compose(v, u),
            lambda: {"s": serialize_morphism(u), "t": serialize_morphism(v)})

    def hs_two_routes(rng):
        a, b = _gen(rng, "A", 3), _gen(rng, "B", 3)
        f = draw(rng, a, b)
        g = draw(rng, a, b)
        lhs = core.hs_inner(f, g)
        rhs = core.trace(compose(dagger(f), g))
        law(lhs, rhs, lambda: {"lhs": serialize_morphism(lhs),
                               "rhs": serialize_morphism(rhs)})

    def hs_norm_positive(rng):
        f = draw(rng, _gen(rng, "A", 3), _gen(rng, "B", 3))
        v = complex(scalar_value(core.hs_norm_sq(f)))
        if nonneg_value(v) is None:
            return {"value": v}

    def hs_states(rng):
        a = _gen(rng, "A", 4)
        psi = draw(rng, UNIT, a)
        phi = draw(rng, UNIT, a)
        law(core.hs_inner(psi, phi), compose(dagger(psi), phi),
            lambda: {"psi": serialize_morphism(psi)})

    if s.phase is not None:
        # on the quotient: a class's identity, its doubled form, ignores the
        # phase of its representative
        def double_phase(rng):
            f = draw(rng, _gen(rng, "A", 3), _gen(rng, "B", 3))
            u = model.sample_unit_scalar(rng)
            law(core.double(core.scalar_mult(u, f)), core.double(f),
                lambda: {"unit": serialize_morphism(u)})

        def witnesses(rng):
            f = draw(rng, _gen(rng, "A", 3), _gen(rng, "B", 3))
            u = model.sample_unit_scalar(rng)
            g = core.scalar_mult(u, f)
            sw, tw = core.phase_witnesses(f, g, tol)

            def pair():
                return {"s": serialize_morphism(sw), "t": serialize_morphism(tw)}
            law(core.scalar_mult(sw, f), core.scalar_mult(tw, g), pair)
            law(compose(sw, dagger(sw)), compose(tw, dagger(tw)), pair)

    def density(rng):
        psi = draw(rng, UNIT, _gen(rng, "A", 4))
        law(compose(psi, dagger(psi)),
            compose(dagger(core.rho(psi.cod, s)),
                    compose(tensor(psi, dagger(psi)), core.lam(psi.cod, s))),
            lambda: {"psi": serialize_morphism(psi)})

    def born_loop(rng):
        parts = [_gen(rng, "A1", 2), _gen(rng, "A2", 2)]
        decomp = ortho.OplusDecomposition.from_parts(parts)
        i = int(rng.integers(0, 2))
        p = compose(ortho.pseudo_injection(decomp, i, s),
                    ortho.pseudo_projection(decomp, i, s))
        psi = draw(rng, UNIT, decomp.whole)
        prob = core.born_prob(psi, p)
        law(prob, core.trace(compose(p, compose(psi, dagger(psi)))),
            lambda: {"psi": serialize_morphism(psi)})
        if nonneg_value(scalar_value(prob)) is None:
            return {"probability": scalar_value(prob)}

    def trace_swap(_):
        for d in range(1, min(3, max_dim) + 1):
            a = Gen("A", d)
            law(core.partial_trace(core.sigma(a, a, s), a), identity(a, s),
                lambda: _obj_witness(a))

    def trace_dim(_):
        # the d-fold sum is built in the base (``model.scalar`` of the quotient
        # takes a doubled value), so the quotient compares it as a class
        for d in range(1, max_dim + 1):
            a = Gen("A", d)
            acc = s.zero
            for _ in range(d):
                acc = s.add(acc, s.one)
            law(core.trace(identity(a, s)), scalar(acc, s), lambda: _obj_witness(a))

    def traced_factor(rng):
        a = _gen(rng, "A", 3)
        g = draw(rng, _gen(rng, "B", 3), _gen(rng, "C", 3))
        acc = s.zero
        for _ in range(dim(a)):
            acc = s.add(acc, s.one)
        law(core.partial_trace(tensor(identity(a, s), g), a),
            core.scalar_mult(scalar(acc, s), g), lambda: _obj_witness(a))

    table = [
        Check("yanking",
              "lam(dagger) o (eta*(dagger) (x) 1) o assoc o (1 (x) eta) o rho = 1",
              WHOLE, yanking),
        Check("unit-coherence", "eta_{A*} = swap o eta_A", WHOLE, unit_coherence),
        Check("structural-isos-unitary", "lam, rho, alpha and sigma are unitary",
              PER_TRIAL, isos_unitary),
        Check("name-unfoldings-agree", "(1 (x) f) o eta_A = (f* (x) 1) o eta_B",
              PER_TRIAL, name_unfoldings),
        Check("name-of-identity", "name(1_A) = eta_A", WHOLE, name_identity),
        Check("scalar-through-compose", "(s . f) o (t . g) = (s o t) . (f o g)",
              PER_TRIAL, scalar_compose),
        Check("scalar-through-tensor", "(s . f) (x) (t . g) = (s o t) . (f (x) g)",
              PER_TRIAL, scalar_tensor),
        Check("tensor-interchange", "(f (x) g) o (h (x) k) = (f o h) (x) (g o k)",
              PER_TRIAL, interchange),
        Check("dagger-involutive-contravariant",
              "f(dagger)(dagger) = f and (g o f)(dagger) = f(dagger) o g(dagger)",
              PER_TRIAL, dagger_laws),
        Check("dagger-factorization", "f(dagger) = (f_*)* = (f*)_*",
              PER_TRIAL, dagger_factors),
        Check("swap-naturality", "sigma o (f (x) g) = (g (x) f) o sigma",
              PER_TRIAL, sigma_natural),
        Check("scalar-commutativity", "s o t = t o s", PER_TRIAL, scalar_comm),
        Check("inner-product-two-routes",
              "name(f)(dagger) o name(g) = Tr(f(dagger) o g)",
              PER_TRIAL, hs_two_routes),
        Check("norm-scalar-positive", "||f|| is a nonnegative real scalar",
              PER_TRIAL, hs_norm_positive),
        Check("inner-product-on-states", "<psi|phi> = psi(dagger) o phi",
              PER_TRIAL, hs_states),
    ]
    if s.phase is not None:
        table += [
            Check("double-ignores-phase",
                  "(u . f) (x) (u . f)(dagger) = f (x) f(dagger) for unit u",
                  PER_TRIAL, double_phase),
            Check("phase-witnesses",
                  "equal doubles yield scalars with s . f = t . g and "
                  "s o s(dagger) = t o t(dagger)", PER_TRIAL, witnesses),
        ]
    table += [
        Check("state-density-identity",
              "psi o psi(dagger) = rho(dagger) o (psi (x) psi(dagger)) o lam",
              PER_TRIAL, density),
        Check("born-probability-loop",
              "psi(dagger) o P o psi = Tr(P o psi o psi(dagger))",
              PER_TRIAL, born_loop),
        Check("partial-trace-of-swap", "Tr_A(sigma_{A,A}) = 1_A", WHOLE, trace_swap),
        Check("trace-counts-dimension", "Tr(1_A) = 1 + ... + 1, dim(A) summands",
              WHOLE, trace_dim),
        Check("partial-trace-splits-identity", "Tr_A(1_A (x) g) = dim(A) . g",
              PER_TRIAL, traced_factor),
    ]
    return table


# -- the wproj suite -----------------------------------------------------------

def _wproj_checks(w: WProjModel, tol, max_dim) -> list[Check]:
    base = w.base
    s = base.semiring
    two = s.add(s.one, s.one)
    sccc = {c.name: c for c in _sccc_checks(w, tol, max_dim)}
    law = Law(w, tol)

    def sample(rng, a=None, b=None):
        a = a if a is not None else _gen(rng, "A", 3)
        b = b if b is not None else _gen(rng, "B", 3)
        return base.sample_morphism(rng, a, b)

    def criteria(rng):
        f = sample(rng)
        g = base.sample_morphism(rng, f.dom, f.cod)
        u = base.sample_unit_scalar(rng)
        rotated = core.scalar_mult(u, f)
        # wequal raises CriterionDisagreement on a split, and the runner
        # records that as the row's failure; a verdict it returns is shared
        equal_to_f = wequal_to(f, tol)
        if not equal_to_f(rotated):
            return {"pair": "phase-rotated", "verdicts": [False, False, False]}
        equal_to_f(g)
        if not s.idempotent:
            if negligible(f.array):
                return None  # degenerate draw, nothing to separate
            doubled_weight = core.scalar_mult(scalar(two, s), f)
            if equal_to_f(doubled_weight):
                return {"pair": "weight-doubled", "note": "classes collapsed"}

    def compose_functorial(rng):
        a, b, c = _gen(rng, "A", 3), _gen(rng, "B", 3), _gen(rng, "C", 3)
        f = sample(rng, a, b)
        g = sample(rng, b, c)
        u = base.sample_unit_scalar(rng)
        v = base.sample_unit_scalar(rng)
        law(compose(core.scalar_mult(u, g), core.scalar_mult(v, f)), compose(g, f),
            lambda: {"f": serialize_morphism(f), "g": serialize_morphism(g)})

    def tensor_functorial(rng):
        f, g = sample(rng), sample(rng, _gen(rng, "C", 3), _gen(rng, "D", 3))
        u = base.sample_unit_scalar(rng)
        v = base.sample_unit_scalar(rng)
        law(tensor(core.scalar_mult(u, f), core.scalar_mult(v, g)), tensor(f, g),
            lambda: {"f": serialize_morphism(f), "g": serialize_morphism(g)})

    def canon_idempotent(rng):
        f = sample(rng)
        c1 = canonical_rep(f)
        if not equal(canonical_rep(c1), c1, rel=tol):
            return {"f": serialize_morphism(f)}

    def canon_phase(rng):
        f = sample(rng)
        u = base.sample_unit_scalar(rng)
        if not equal(canonical_rep(core.scalar_mult(u, f)), canonical_rep(f), tol):
            return {"unit": serialize_morphism(u)}

    def canon_in_class(rng):
        f = sample(rng)
        law(canonical_rep(f), f, lambda: {"f": serialize_morphism(f)})

    def doubled_scalar(rng):
        c = base.sample_morphism(rng, UNIT, UNIT)
        v = w.scalar_value(c)
        if nonneg_value(v) is None:
            return {"value": float(v)}

    if not s.idempotent:
        def separates(rng):
            f = sample(rng)
            if negligible(f.array):
                return None
            heavier = core.scalar_mult(scalar(two, s), f)
            if w.equal(f, heavier, tol):
                return {"note": "weights were identified"}
            u = base.sample_unit_scalar(rng)
            law(f, core.scalar_mult(u, f), {"note": "phases were separated"})

    table = [
        Check("equality-criteria-agree",
              "doubled forms, f (x) f_* and the name projectors give one verdict",
              PER_TRIAL, criteria),
        Check("quotient-respects-compose",
              "[g] o [f] = [g o f] whatever the representatives",
              PER_TRIAL, compose_functorial),
        Check("quotient-respects-tensor",
              "[f] (x) [g] = [f (x) g] whatever the representatives",
              PER_TRIAL, tensor_functorial),
        # three sccc laws, the sccc rows themselves run on the quotient
        sccc["dagger-involutive-contravariant"]._replace(
            name="quotient-dagger-involutive", law="[f](dagger)(dagger) = [f]"),
        sccc["yanking"]._replace(
            name="quotient-yanking",
            law="the yanking composite is the identity class"),
        sccc["tensor-interchange"]._replace(
            name="quotient-interchange",
            law="([f] (x) [g]) o ([h] (x) [k]) = ([f] o [h]) (x) ([g] o [k])"),
        Check("canonical-representative-idempotent",
              "canonicalizing twice changes nothing", PER_TRIAL, canon_idempotent),
        Check("canonical-representative-phase-free",
              "every representative of a class canonicalizes the same way",
              PER_TRIAL, canon_phase),
        Check("canonical-representative-in-class", "[canonical(f)] = [f]",
              PER_TRIAL, canon_in_class),
        Check("quotient-scalars-nonnegative",
              "a quotient scalar is c o c(dagger), a nonnegative real",
              PER_TRIAL, doubled_scalar),
    ]
    if not s.idempotent:
        table.append(Check("quotient-separates-weight-from-phase",
                           "scaling by 2 leaves the class, a unit phase does not",
                           PER_TRIAL, separates))
    return table


# -- the prep-state suite ------------------------------------------------------

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


# -- the ortho suite -----------------------------------------------------------

def _ortho_checks(model: ModelHandle, tol, max_dim) -> list[Check]:
    s = model.semiring
    draw = model.sample_morphism
    law = Law(model, tol)

    def zero_diagram(_):
        for da in range(1, min(3, max_dim) + 1):
            for db in range(1, min(3, max_dim) + 1):
                a, b = Gen("A", da), Gen("B", db)
                z = ortho.zero_morphism(a, b, s)
                if z.array.shape != (db, da) or np.count_nonzero(z.array) != 0:
                    return {"object": f"{format_object(a)} -> {format_object(b)}"}

    def annihilation(rng):
        a, b, c = _gen(rng, "A", 3), _gen(rng, "B", 3), _gen(rng, "C", 3)
        f = draw(rng, b, c)
        law(compose(f, ortho.zero_morphism(a, b, s)), ortho.zero_morphism(a, c, s),
            {"side": "post"})
        law(compose(ortho.zero_morphism(c, a, s), f), ortho.zero_morphism(b, a, s),
            {"side": "pre"})

    def oplus_dagger(rng):
        f = draw(rng, _gen(rng, "A", 3), _gen(rng, "B", 3))
        g = draw(rng, _gen(rng, "C", 3), _gen(rng, "D", 3))
        law(dagger(direct_sum(f, g)), direct_sum(dagger(f), dagger(g)),
            lambda: {"f": serialize_morphism(f)})

    def oplus_functorial(rng):
        a, b, c = _gen(rng, "A", 3), _gen(rng, "B", 3), _gen(rng, "C", 3)
        d, e, x = _gen(rng, "D", 3), _gen(rng, "E", 3), _gen(rng, "F", 3)
        f, h = draw(rng, b, c), draw(rng, a, b)
        g, k = draw(rng, e, x), draw(rng, d, e)
        law(compose(direct_sum(f, g), direct_sum(h, k)),
            direct_sum(compose(f, h), compose(g, k)))

    def oplus_isos(rng):
        a, b, c = _gen(rng, "A", 3), _gen(rng, "B", 3), _gen(rng, "C", 3)
        for tag, iso in (("l", ortho.l_unitor(a, s)), ("r", ortho.r_unitor(a, s)),
                         ("s", ortho.oplus_symmetry(a, b, s)),
                         ("a", ortho.oplus_assoc(a, b, c, s)),
                         ("dist-left", ortho.dist_left(a, b, c, s)),
                         ("dist-right", ortho.dist_right(b, c, a, s))):
            law(compose(dagger(iso), iso), identity(iso.dom, s), {"iso": tag})
            law(compose(iso, dagger(iso)), identity(iso.cod, s), {"iso": tag})

    def dist_natural(rng):
        a, b, c = _gen(rng, "A", 2), _gen(rng, "B", 2), _gen(rng, "C", 2)
        a2, b2, c2 = _gen(rng, "A2", 2), _gen(rng, "B2", 2), _gen(rng, "C2", 2)
        h = draw(rng, a, a2)
        f = draw(rng, b, b2)
        g = draw(rng, c, c2)
        law(compose(ortho.dist_left(a2, b2, c2, s), tensor(h, direct_sum(f, g))),
            compose(direct_sum(tensor(h, f), tensor(h, g)),
                    ortho.dist_left(a, b, c, s)))

    def _decomp(rng, n):
        return ortho.OplusDecomposition.from_parts(
            [_gen(rng, f"A{i + 1}", 2) for i in range(n)])

    def pseudo_orthogonality(rng):
        decomp = _decomp(rng, int(rng.integers(2, 4)))
        for i in range(len(decomp)):
            for j in range(len(decomp)):
                got = compose(ortho.pseudo_projection(decomp, i, s),
                              ortho.pseudo_injection(decomp, j, s))
                want = (identity(decomp.parts[i], s) if i == j else
                        ortho.zero_morphism(decomp.parts[j], decomp.parts[i], s))
                law(got, want, {"i": i, "j": j})

    def pseudo_dagger(rng):
        decomp = _decomp(rng, int(rng.integers(2, 4)))
        for i in range(len(decomp)):
            law(dagger(ortho.pseudo_injection(decomp, i, s)),
                ortho.pseudo_projection(decomp, i, s), {"i": i})

    def pseudo_symmetry(rng):
        a, b = _gen(rng, "A", 3), _gen(rng, "B", 3)
        left = ortho.OplusDecomposition.from_parts([a, b])
        right = ortho.OplusDecomposition.from_parts([b, a])
        law(ortho.pseudo_projection(left, 0, s),
            compose(ortho.pseudo_projection(right, 1, s),
                    ortho.oplus_symmetry(a, b, s)),
            lambda: {"a": format_object(a), "b": format_object(b)})

    def pseudo_natural(rng):
        a, b = _gen(rng, "A", 3), _gen(rng, "B", 3)
        c, d = _gen(rng, "C", 3), _gen(rng, "D", 3)
        f = draw(rng, a, b)
        g = draw(rng, c, d)
        cod = ortho.OplusDecomposition.from_parts([b, d])
        dom = ortho.OplusDecomposition.from_parts([a, c])
        law(compose(ortho.pseudo_projection(cod, 0, s), direct_sum(f, g)),
            compose(f, ortho.pseudo_projection(dom, 0, s)))

    def pseudo_assoc(rng):
        a, b, c = _gen(rng, "A", 2), _gen(rng, "B", 2), _gen(rng, "C", 2)
        bc = ortho.OplusDecomposition.from_parts([b, c])
        ab_c = ortho.OplusDecomposition.from_parts([Oplus(a, b), c])
        law(direct_sum(identity(a, s), ortho.pseudo_projection(bc, 0, s)),
            compose(ortho.pseudo_projection(ab_c, 0, s), ortho.oplus_assoc(a, b, c, s)),
            {"law": "1 (+) p = p o assoc"})
        ab = ortho.OplusDecomposition.from_parts([a, b])
        a_bc = ortho.OplusDecomposition.from_parts([a, Oplus(b, c)])
        law(compose(ortho.pseudo_projection(ab, 0, s),
                    ortho.pseudo_projection(ab_c, 0, s)),
            compose(ortho.pseudo_projection(a_bc, 0, s),
                    dagger(ortho.oplus_assoc(a, b, c, s))),
            {"law": "p o p = p o assoc(dagger)"})

    if s.phase is not None:
        def components(rng):
            dims = [int(rng.integers(1, 3)) for _ in range(2)]
            u = random_unitary(model, dims, rng)
            parts = [UNIT if d == 1 else Gen(f"A{i}", d)
                     for i, d in enumerate(dims)]
            decomp = ortho.OplusDecomposition.from_parts(parts)
            pis = [compose(ortho.pseudo_projection(decomp, i, s), u)
                   for i in range(2)]
            for i in range(2):
                for j in range(2):
                    want = (identity(parts[i], s) if i == j else
                            ortho.zero_morphism(parts[i], parts[j], s))
                    law(compose(pis[j], dagger(pis[i])), want,
                        {"kind": "conormal", "i": i, "j": j})
            v = dagger(u)
            psis = [compose(v, ortho.pseudo_injection(decomp, i, s))
                    for i in range(2)]
            for i in range(2):
                for j in range(2):
                    want = (identity(parts[i], s) if i == j else
                            ortho.zero_morphism(parts[i], parts[j], s))
                    law(compose(dagger(psis[j]), psis[i]), want,
                        {"kind": "normal", "i": i, "j": j})

    def reassembly(rng):
        dom = _decomp(rng, 2)
        cod = _decomp(rng, 2)
        f = draw(rng, dom.whole, cod.whole)
        terms = []
        for i in range(2):
            for j in range(2):
                fij = ortho.pseudo_component(f, dom, cod, i, j)
                terms.append(compose(ortho.pseudo_injection(cod, j, s),
                                     compose(fij, ortho.pseudo_projection(dom, i, s))))
        law(reduce(ortho.derived_sum, terms), f)

    def entrywise(rng):
        a, b = _gen(rng, "A", 3), _gen(rng, "B", 3)
        f = draw(rng, a, b)
        g = draw(rng, a, b)
        want_arr = np.frompyfunc(s.add, 2, 1)(f.array, g.array)
        law(ortho.derived_sum(f, g), Morphism(a, b, want_arr, s))

    def biproduct_route(rng):
        a, b = _gen(rng, "A", 3), _gen(rng, "B", 3)
        f = draw(rng, a, b)
        g = draw(rng, a, b)
        codiag = copairing([identity(b, s), identity(b, s)])
        diag = pairing([identity(a, s), identity(a, s)])
        law(ortho.derived_sum(f, g), compose(codiag, compose(direct_sum(f, g), diag)))

    def cmon(rng):
        a, b = _gen(rng, "A", 3), _gen(rng, "B", 3)
        f = draw(rng, a, b)
        g = draw(rng, a, b)
        h = draw(rng, a, b)
        law(ortho.derived_sum(f, g), ortho.derived_sum(g, f), {"law": "commutativity"})
        law(ortho.derived_sum(ortho.derived_sum(f, g), h),
            ortho.derived_sum(f, ortho.derived_sum(g, h)), {"law": "associativity"})
        law(ortho.derived_sum(f, ortho.zero_morphism(a, b, s)), f, {"law": "unit"})

    if s.phase is not None:
        def no_go(_):
            hot = ortho.oplus_illdefined_witness(np.pi / 2)
            cold = ortho.oplus_illdefined_witness(0.0)
            # u = e^{0i} is exactly 1, so the aligned doubled forms are one array
            violated = (hot["pairing_gap"] > 0.25 and hot["oplus_gap"] > 0.25
                        and cold["pairing_gap"] == 0.0 and cold["oplus_gap"] == 0.0)
            return violated, {"rotated": hot, "aligned": cold}

    table = [
        Check("zero-through-zero-object",
              "the composite through 0 is the zero matrix, exactly",
              WHOLE, zero_diagram),
        Check("zero-annihilates", "f o 0 = 0 and 0 o f = 0", PER_TRIAL, annihilation),
        Check("block-sum-commutes-with-dagger",
              "(f (+) g)(dagger) = f(dagger) (+) g(dagger)", PER_TRIAL, oplus_dagger),
        Check("block-sum-functorial", "(f (+) g) o (h (+) k) = (f o h) (+) (g o k)",
              PER_TRIAL, oplus_functorial),
        Check("additive-isos-unitary",
              "unitors, symmetry, associator and DIST are unitary",
              PER_TRIAL, oplus_isos),
        Check("distributivity-natural",
              "DIST o (h (x) (f (+) g)) = ((h (x) f) (+) (h (x) g)) o DIST",
              PER_TRIAL, dist_natural),
        Check("pseudo-maps-orthonormal", "p_i o q_i = 1 and p_i o q_j = 0 for i /= j",
              PER_TRIAL, pseudo_orthogonality),
        Check("pseudo-injection-adjoint",
              "q_i(dagger) = p_i even though both are built separately",
              PER_TRIAL, pseudo_dagger),
        Check("pseudo-projection-swaps", "p over A equals p after the block swap",
              PER_TRIAL, pseudo_symmetry),
        Check("pseudo-projection-natural", "p o (f (+) g) = f o p",
              PER_TRIAL, pseudo_natural),
        Check("pseudo-projection-reassociates",
              "nested projections agree across the additive associator",
              PER_TRIAL, pseudo_assoc),
    ]
    if s.phase is not None:
        table.append(Check("unitary-components-orthonormal",
                           "p_i o U conormalized and coorthogonal; U o q_i "
                           "normalized and orthogonal", PER_TRIAL, components))
    table += [
        Check("blocks-reassemble", "summing q_j o f_ij o p_i over all blocks returns f",
              PER_TRIAL, reassembly),
        Check("derived-sum-is-entrywise",
              "the composite through 2 = I (+) I adds matrices entrywise",
              PER_TRIAL, entrywise),
        Check("derived-sum-matches-biproduct-sum",
              "the unit-object route agrees with codiagonal o (f (+) g) o diagonal",
              PER_TRIAL, biproduct_route),
        Check("derived-sum-commutative-monoid",
              "the derived sum is associative and commutative with unit 0",
              PER_TRIAL, cmon),
    ]
    if s.phase is not None:
        table.append(Check("block-sum-on-phase-classes",
                           "extending (+) to phase classes of morphisms is "
                           "inconsistent", EXPECTED_FAIL, no_go))
    return table


# -- the born suite ------------------------------------------------------------

def _born_checks(model, tol, nu: born.Nu) -> list[Check]:
    s = model.semiring
    half = born.Exponent(1, 2)
    zeta = born.Exponent(half / nu.value)
    law = Law(model, tol)

    def sample(rng, a=None, b=None):
        a = a if a is not None else Gen("A", int(rng.integers(1, 4)))
        b = b if b is not None else Gen("B", int(rng.integers(1, 4)))
        return model.sample_morphism(rng, a, b)

    def val(f):
        return born.valuation_norm(model, f, nu)

    def values(**scalars):
        """A witness of the named scalars' values."""
        return lambda: {k: model.scalar_value(v) for k, v in scalars.items()}

    def splits(n_parts):
        def check(rng):
            a, decomp = born._sample_split(rng, n_parts)
            f = model.sample_morphism(rng, a, decomp.whole)
            if not born.check_born_decomposition(model, f, decomp, nu, tolerance=tol):
                return {"f": serialize_morphism(f)}
        return check

    def dagger_invariant(rng):
        f = sample(rng)
        law(val(f), val(dagger(f)), lambda: {"f": serialize_morphism(f)})

    def zero_val(rng):
        a, b = Gen("A", int(rng.integers(1, 4))), Gen("B", int(rng.integers(1, 4)))
        z = val(zeros(a, b, s))
        law(z, model.scalar(0), values(value=z))

    def oplus_additive(rng):
        f, g = sample(rng), sample(rng, Gen("C", int(rng.integers(1, 4))),
                                   Gen("D", int(rng.integers(1, 4))))
        lhs = val(direct_sum(f, g))
        rhs = born.scalar_sum(model, val(f), val(g), nu)
        law(lhs, rhs, values(lhs=lhs, rhs=rhs))

    def assoc(rng):
        vals = [val(sample(rng)) for _ in range(3)]
        lhs = born.scalar_sum(model, born.scalar_sum(model, vals[0], vals[1], nu),
                              vals[2], nu)
        rhs = born.scalar_sum(model, vals[0],
                              born.scalar_sum(model, vals[1], vals[2], nu), nu)
        law(lhs, rhs, values(lhs=lhs, rhs=rhs))

    def comm(rng):
        sv, tv = val(sample(rng)), val(sample(rng))
        law(born.scalar_sum(model, sv, tv, nu), born.scalar_sum(model, tv, sv, nu),
            values(s=sv, t=tv))

    def distributive(rng):
        c = val(model.sample_morphism(rng, UNIT, UNIT))
        sv, tv = val(sample(rng)), val(sample(rng))
        lhs = compose(c, born.scalar_sum(model, sv, tv, nu))
        rhs = born.scalar_sum(model, compose(c, sv), compose(c, tv), nu)
        law(lhs, rhs, values(lhs=lhs, rhs=rhs))

    def zeta_roundtrip(rng):
        sv = val(sample(rng))
        law(val(model.scalar_power(sv, zeta)), sv, values(s=sv))

    def oplus_route(rng):
        sv, tv = val(sample(rng)), val(sample(rng))
        via_sum = born.scalar_sum(model, sv, tv, nu)
        via_val = val(direct_sum(model.scalar_power(sv, zeta),
                                 model.scalar_power(tv, zeta)))
        law(via_sum, via_val, values(sum=via_sum, valuation=via_val))

    def two(_):
        one = model.scalar(1)
        got = complex(model.scalar_value(born.scalar_sum(model, one, one, nu)))
        # the model's 2 is 1 + 1; a quotient scalar c has the value c o c(dagger)
        v = s.add(s.one, s.one)
        want = complex(s.mul(v, v) if model.quotient else v).real ** float(nu.value)
        if not _within(abs(got - want), max(abs(got), abs(want)), tol):
            return {"got": [got.real, got.imag], "want": want}

    def sqrt_decomposition(rng):
        f = sample(rng)
        norm = core.hs_norm_sq(f)
        root = model.scalar_power(norm, half)
        law(compose(root, dagger(root)), norm, values(norm=norm))

    return [
        Check("valuation-splits-binary",
              "|f| = |f_1| + |f_2| against a two-block codomain",
              PER_TRIAL, splits(2)),
        Check("valuation-splits-ternary",
              "|f| = |f_1| + |f_2| + |f_3| by folding the binary rule",
              PER_TRIAL, splits(3)),
        Check("valuation-fixed-by-dagger", "|f(dagger)| = |f|",
              PER_TRIAL, dagger_invariant),
        Check("valuation-kills-zero", "|0| = 0", PER_TRIAL, zero_val),
        Check("valuation-additive-on-blocks", "|f (+) g| = |f| + |g|",
              PER_TRIAL, oplus_additive),
        Check("scalar-sum-associative", "(s + t) + u = s + (t + u)", PER_TRIAL, assoc),
        Check("scalar-sum-commutative", "s + t = t + s", PER_TRIAL, comm),
        Check("scalar-sum-distributive", "|c| o (s + t) = (|c| o s) + (|c| o t)",
              PER_TRIAL, distributive),
        Check("valuation-root-roundtrip", "|s^zeta| = s for zeta = 1/(2 nu)",
              PER_TRIAL, zeta_roundtrip),
        Check("scalar-sum-as-block-valuation", "s + t = |s^zeta (+) t^zeta|",
              PER_TRIAL, oplus_route),
        *born.leg_checks(model, tol),
        Check("one-plus-one",
              "1 + 1 = (Tr(1^(1/nu) (+) 1^(1/nu)))^nu lands on the model's 2",
              WHOLE, two),
        Check("norm-scalar-has-positive-root",
              "||f|| = x o x(dagger) for the nonnegative root x",
              PER_TRIAL, sqrt_decomposition),
    ]
