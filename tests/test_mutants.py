"""Mutants: each patches one primitive, and the suites that claim a law it
breaks must fail a row with it installed."""
import sys
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import sccckit
from sccckit import (COMPLEX, CriterionDisagreement, Gen, ModelHandle, Tensor,
                     WProjModel, core, dim, dual, morphisms, ortho,
                     resolve_model, run_suite, run_teleportation, scalar,
                     scalar_mult, wequal, wproj)
from sccckit.morphisms import _derived, adopt, eye, kernel_array
from sccckit.semirings import max_abs


def _failed(suite: str, selector: str) -> list[str]:
    """The failing rows of a suite, or of ``protocol teleport`` as "teleport"."""
    model = resolve_model(selector)
    if suite == "teleport":
        report = run_teleportation(model=model, seed=3)
    else:
        report = run_suite(suite, model, trials=10, seed=3)
    return [r.check_name for r in report.results if r.status == "fail"]


@pytest.mark.parametrize("answer,suites", [
    # a quotient that identifies every pair cannot separate weight from phase
    (True, ["wproj"]),
    # one that identifies nothing loses every law stated as a class equality
    (False, ["wproj", "sccc"]),
], ids=["quotient-equal-always-true", "quotient-equal-always-false"])
def test_a_constant_quotient_equality_fails_a_row(monkeypatch, answer, suites):
    monkeypatch.setattr(WProjModel, "equal", lambda self, f, g, rel=None: answer)
    for suite in suites:
        assert _failed(suite, "wproj:fdhilb"), suite


_phase_align = wproj.phase_align


def _phase_off_the_pivot(f, g):
    """``phase_align`` with c read off g one entry past f's pivot."""
    rolled = morphisms.Morphism(g.dom, g.cod, np.roll(g.array, -1), g.semiring)
    c, _, m = _phase_align(f, rolled)
    return c, max_abs(g.array - c * f.array), m


_settled = wproj._settled


def _representatives_compared(f, g, rel):
    """``_settled`` with a 1 x 1 pair decided on its representatives c and d,
    not on their doubled values c c(dagger) and d d(dagger)."""
    if f.array.shape == (1, 1):
        return f.semiring.approx_equal(f.array, g.array, rel)
    return _settled(f, g, rel)


@pytest.mark.parametrize("attr,mutant,catches", [
    # an alignment that settles every pair as equal merges classes that the
    # weight rows and the corrupted control keep apart
    ("_settled", lambda f, g, rel: True, {
        ("wproj", "wproj:fdhilb"): ["quotient-separates-weight-from-phase"],
        ("equivalence", "wproj:fdhilb"): ["axiom-legs-agree-corrupted-control"]}),
    # a pivot shared by f and g cannot mislead, since every common entry of a
    # phase pair carries its phase; one read apart makes phase pairs look far
    # apart, past the lower bound, and every row stating a class law sees it
    ("phase_align", _phase_off_the_pivot, {
        ("wproj", "wproj:fdhilb"): ["quotient-respects-compose",
                                    "quotient-respects-tensor",
                                    "canonical-representative-in-class"],
        ("sccc", "wproj:fdhilb"): ["double-ignores-phase", "phase-witnesses"],
        ("prep-state", "wproj:fdhilb"): ["densities-determine-states"]}),
    # it splits scalars a phase apart; born compares only the nonnegative
    # roots the scalar constructor picks, and of the rows that rotate arrows
    # by phases only the compose row draws a 1 x 1 composite at this seed
    ("_settled", _representatives_compared, {
        ("wproj", "wproj:fdhilb"): ["quotient-respects-compose"]}),
], ids=["alignment-always-equal", "alignment-phase-off-pivot",
        "scalar-rule-on-representatives"])
def test_a_broken_alignment_fails_its_rows(monkeypatch, attr, mutant, catches):
    monkeypatch.setattr(wproj, attr, mutant)
    for (suite, selector), rows in catches.items():
        missed = set(rows) - set(_failed(suite, selector))
        assert not missed, (suite, selector, sorted(missed))


def _undoubled_value(self, s):
    """The quotient's scalar value read off the representative c, not c c(dagger)."""
    v = s.array.item()
    return float(v.real) if isinstance(v, complex) else v


# the born rows that read a quotient scalar's value or build one from a value
BORN_SCALAR_ROWS = [
    "valuation-splits-binary", "valuation-splits-ternary",
    "valuation-additive-on-blocks", "scalar-sum-associative",
    "scalar-sum-distributive", "valuation-root-roundtrip", "diagonal-axiom",
    "trace-linearity", "norm-block-decomposition", "one-plus-one",
    "norm-scalar-has-positive-root",
]
POWER_ROWS = ["valuation-root-roundtrip", "scalar-sum-as-block-valuation",
              "norm-scalar-has-positive-root"]


@pytest.mark.parametrize("cls,method,mutant,catches", [
    (WProjModel, "scalar_value", _undoubled_value, {
        ("born", "wproj:fdhilb"): BORN_SCALAR_ROWS,
        ("wproj", "wproj:fdhilb"): ["quotient-scalars-nonnegative"],
        ("equivalence", "wproj:fdhilb"): ["axiom-legs-agree"]}),
    (WProjModel, "scalar", lambda self, value: scalar(value, self.semiring), {
        ("born", "wproj:fdhilb"): BORN_SCALAR_ROWS}),
    (ModelHandle, "scalar_power", lambda self, s, exponent: s, {
        ("born", selector): POWER_ROWS
        for selector in ("fdhilb", "wproj:fdhilb", "weights")}),
], ids=["quotient-scalar-value-undoubled", "quotient-scalar-unrooted",
        "scalar-power-ignores-exponent"])
def test_a_broken_scalar_read_fails_its_rows(monkeypatch, cls, method, mutant, catches):
    monkeypatch.setattr(cls, method, mutant)
    for (suite, selector), rows in catches.items():
        missed = set(rows) - set(_failed(suite, selector))
        assert not missed, (suite, selector, sorted(missed))


def _package_modules():
    """Every module of the package, each imported first: one first imported
    while a mutant is bound would copy it and keep it after the restore."""
    for path in Path(sccckit.__file__).parent.glob("*.py"):
        if path.stem not in ("__init__", "__main__"):
            import_module(f"sccckit.{path.stem}")
    return [m for n, m in list(sys.modules.items())
            if (n == "sccckit" or n.startswith("sccckit.")) and m is not None]


def _clear_caches():
    for mod in _package_modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@contextmanager
def _everywhere(module, attr, mutant):
    """Bind ``mutant`` wherever ``module.attr`` is bound in the package, with
    the memoized constructors emptied on the way in and out, so no arrow
    built with one primitive is served to a caller of the other."""
    original = getattr(module, attr)
    bound = [(mod, key) for mod in _package_modules()
             for key, value in vars(mod).items() if value is original]
    _clear_caches()
    try:
        for mod, key in bound:
            setattr(mod, key, mutant)
        yield
    finally:
        for mod, key in bound:
            setattr(mod, key, original)
        _clear_caches()


def _unconjugated_lower_star(f):
    return _derived(dual(f.dom), dual(f.cod), f.array, f.semiring, f.array.shape)


def _swapped_tensor(f, g):
    (m, n), (p, q) = f.array.shape, g.array.shape
    return _derived(Tensor(f.dom, g.dom), Tensor(f.cod, g.cod),
                    f.semiring.kron(g.array, f.array), f.semiring, (m * p, n * q))


def _retyped_identity_sigma(a, b, s):
    return adopt(Tensor(a, b), Tensor(b, a), eye(dim(a) * dim(b), s), s)


_dagger = morphisms.dagger


def _untransposed_dagger(f):
    """Conjugates a square arrow without transposing it; the true dagger otherwise."""
    if f.array.shape[0] != f.array.shape[1]:
        return _dagger(f)
    return _derived(f.cod, f.dom, f.semiring.involution(f.array), f.semiring,
                    f.array.shape)


_star = morphisms.star


def _untransposed_star(f):
    """Leaves a square arrow untransposed; the true star otherwise."""
    if f.array.shape[0] != f.array.shape[1]:
        return _star(f)
    return _derived(dual(f.cod), dual(f.dom), f.array, f.semiring, f.array.shape)


def _entrywise_max(f, g):
    return adopt(f.dom, f.cod, np.maximum(f.array, g.array), f.semiring)


_name_array = core.name_array

SCALAR_ROWS = ["scalar-through-compose", "scalar-through-tensor"]
# the four corrected-branch rows of protocol teleport
BRANCH_ROWS = [f"branch-{i}" for i in range(4)]


@pytest.mark.parametrize("module,attr,mutant,catches", [
    (morphisms, "lower_star", _unconjugated_lower_star, {
        ("sccc", "fdhilb"): ["dagger-factorization"],
        ("sccc", "wproj:fdhilb"): ["dagger-factorization"],
        ("wproj", "wproj:fdhilb"): ["equality-criteria-agree"],
        ("teleport", "fdhilb"): BRANCH_ROWS}),
    # every teleport row still passes with it installed
    (morphisms, "tensor", _swapped_tensor, {
        ("sccc", "fdhilb"): ["swap-naturality"]}),
    # the right-hand sides of the scalar-through rows scale with the
    # semiring's kernel, so they see a scalar action that does nothing
    (core, "scalar_mult", lambda s_mor, f: f, {
        **{("sccc", selector): SCALAR_ROWS
           for selector in ("fdhilb", "wproj:fdhilb", "weights")},
        ("teleport", "fdhilb"): BRANCH_ROWS + ["probability-conservation"]}),
    # a conjugated name: conj(n) conj(n)(dagger) is the conjugate of the
    # projector, so the quotient's criteria still agree, and the rows that
    # read names as vectors catch it
    (core, "name_array", lambda f: _name_array(f).conj(), {
        ("sccc", "fdhilb"): ["name-unfoldings-agree", "inner-product-two-routes",
                             "phase-witnesses"],
        ("sccc", "wproj:fdhilb"): ["name-unfoldings-agree", "phase-witnesses"]}),
    (ortho, "derived_sum", lambda f, g: f, {
        ("ortho", "fdhilb"): ["derived-sum-is-entrywise",
                              "derived-sum-matches-biproduct-sum",
                              "derived-sum-commutative-monoid",
                              "blocks-reassemble"]}),
    (wproj, "canonical_rep", lambda f: f, {
        ("wproj", "wproj:fdhilb"): ["canonical-representative-phase-free"]}),
    (core, "sigma", _retyped_identity_sigma, {
        ("sccc", "fdhilb"): ["swap-naturality", "partial-trace-of-swap"],
        ("teleport", "fdhilb"): BRANCH_ROWS + ["probability-conservation"]}),
    (morphisms, "dagger", _untransposed_dagger, {
        ("sccc", selector): ["dagger-factorization", "structural-isos-unitary"]
        for selector in ("fdhilb", "rel")}),
    # the absorption unfolding (f* (x) 1) o eta_B is the one name built with star
    (morphisms, "star", _untransposed_star, {
        ("sccc", selector): ["name-unfoldings-agree", "dagger-factorization"]
        for selector in ("fdhilb", "rel")}),
    # a commutative monoid with unit 0 on weights, so only the rows that
    # state the sum's formula, or read it through a trace, see it
    (ortho, "derived_sum", _entrywise_max, {
        ("ortho", "weights"): ["derived-sum-is-entrywise",
                               "derived-sum-matches-biproduct-sum"],
        ("born", "weights"): ["diagonal-axiom-derived-sum", "trace-linearity",
                              "sum-trace-vs-block-trace"]}),
], ids=["lower-star-unconjugated", "tensor-factors-swapped",
        "scalar-mult-ignores-scalar", "name-conjugated", "derived-sum-is-f",
        "canonical-rep-unrotated", "sigma-retyped-identity",
        "dagger-untransposed", "star-untransposed", "derived-sum-entrywise-max"])
def test_a_broken_primitive_fails_its_rows(module, attr, mutant, catches):
    with _everywhere(module, attr, mutant):
        for (suite, selector), rows in catches.items():
            missed = set(rows) - set(_failed(suite, selector))
            assert not missed, (suite, selector, sorted(missed))


def _zero_double(f):
    """The zero matrix of f's doubled type A @ B -> B @ A, whatever f holds."""
    m, n = f.array.shape
    return adopt(Tensor(f.dom, f.cod), Tensor(f.cod, f.dom),
                 np.zeros((m * n, n * m), f.semiring.dtype), f.semiring)


EXHAUSTIVE = "doubles-determine-morphisms-exhaustive"


@pytest.mark.parametrize("selector,pairs", [("weights", 6732), ("rel", 292)])
def test_a_double_that_ignores_its_argument_fails_the_exhaustive_row(selector, pairs):
    # the sampled rows pair f with f times a unit, which on a phase-free
    # model is f itself, so only the grid meets two matrices that differ
    model = resolve_model(selector)
    healthy = run_suite("prep-state", model, trials=10, seed=3)
    assert {r.check_name: r.witness for r in healthy.results}[EXHAUSTIVE] == {
        "pairs_checked": pairs}
    with _everywhere(core, "double", _zero_double):
        report = run_suite("prep-state", model, trials=10, seed=3)
    failed = {r.check_name: r.witness for r in report.results if r.status == "fail"}
    assert list(failed) == [EXHAUSTIVE]
    unit = {"dom": "I", "cod": "I"}
    assert failed[EXHAUSTIVE] == {"f": {**unit, "entries": [[0.0, 0.0]]},
                                  "g": {**unit, "entries": [[1.0, 0.0]]},
                                  "trial": 0}


def test_a_name_that_is_not_phase_covariant_splits_the_criteria():
    # the real part of a name does not rotate with f, so the projector
    # criterion alone separates f from a phase of it
    f = morphisms.Morphism(Gen("A", 2), Gen("B", 2),
                           np.array([[1, 2j], [3, 4 - 1j]]), COMPLEX)
    g = scalar_mult(scalar(1j, COMPLEX), f)
    assert wequal(f, g)
    with _everywhere(core, "name_array", lambda f: _name_array(f).real):
        with pytest.raises(CriterionDisagreement):
            wequal(f, g)
        assert "equality-criteria-agree" in _failed("wproj", "wproj:fdhilb")


def _lift_without_involution(f):
    """f (x) f^T in place of the doubled form f (x) f(dagger)."""
    s = f.semiring
    m, n = f.array.shape
    return kernel_array(s.kron(f.array, f.array.T), s, (m * n, n * m))


def test_a_doubled_form_without_the_involution_splits_the_criteria():
    # f (x) f^T picks up u^2 under a phase u, so the doubled-form criterion
    # alone separates f from i.f while the other two identify them
    f = morphisms.Morphism(Gen("A", 2), Gen("B", 2),
                           np.array([[1, 2j], [3, 4 - 1j]]), COMPLEX)
    g = scalar_mult(scalar(1j, COMPLEX), f)
    assert wequal(f, g)
    with _everywhere(wproj, "lift", _lift_without_involution):
        with pytest.raises(CriterionDisagreement,
                           match="doubled=False lower=True projector=True"):
            wequal(f, g)
        assert "equality-criteria-agree" in _failed("wproj", "wproj:fdhilb")
