"""Global-phase quotient: classes, canonical forms, the prep-state axiom."""

from itertools import product
import warnings

import numpy as np
import pytest

from sccckit import (
    COMPLEX,
    CriterionDisagreement,
    Gen,
    ModelHandle,
    Morphism,
    NotPhaseEquivalent,
    NumericRange,
    TypeMismatch,
    UNIT,
    WProjModel,
    canonical_rep,
    double,
    equal,
    fdhilb,
    rel_model,
    resolve_model,
    run_suite,
    scalar,
    scalar_mult,
    wequal,
    weight_model,
)
from sccckit import core, morphisms, suites, wproj
from sccckit.report import Held, deserialize_morphism, serialize_morphism
from sccckit.semirings import corrupted_complex

Q = Gen("Q", 2)
M = fdhilb()


def cmor(arr):
    a = np.asarray(arr, dtype=complex)
    return Morphism(Gen("A", a.shape[1]), Gen("B", a.shape[0]), a, COMPLEX)


def phase(theta):
    return scalar(np.exp(1j * theta), COMPLEX)


def test_lift_identifies_exactly_the_phases():
    rng = np.random.default_rng(31)
    for _ in range(30):
        f = M.sample_morphism(rng, Q, Q)
        g = scalar_mult(phase(rng.uniform(0, 2 * np.pi)), f)
        # wequal returns only when all three criteria agree; they say yes
        assert wequal(f, g) is True
    f = cmor([[1, 2], [3, 4]])
    assert wequal(f, scalar_mult(scalar(2, COMPLEX), f)) is False
    assert wequal(f, cmor([[1, 2], [3, 5]])) is False


def test_wequal_type_mismatch_names_the_ends_in_object_syntax():
    # the ends are printed as in the CLI (A[2]), not as raw node reprs
    f = cmor([[1, 2], [3, 4]])
    g = cmor([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(TypeMismatch, match=r"cannot compare A\[2\]->B\[2\] with A\[3\]->B\[2\]"):
        wequal(f, g)


def test_canonical_rep_is_a_class_invariant():
    rng = np.random.default_rng(33)
    for _ in range(20):
        f = M.sample_morphism(rng, Q, Q)
        g = scalar_mult(phase(rng.uniform(0, 2 * np.pi)), f)
        cf, cg = canonical_rep(f), canonical_rep(g)
        assert equal(cf, cg)
        assert equal(canonical_rep(cf), cf)  # idempotent
        assert wequal(cf, f)  # stays in the class


def test_canonical_rep_rotates_a_tiny_normal_pivot():
    # 1e-305 is a normal float, so top/|top| is a unit and the pivot turns
    got = canonical_rep(cmor([[1e-305j, 0], [0, 0]])).array
    assert got[0, 0].imag == 0 and got[0, 0].real > 0


def test_canonical_rep_leaves_a_subnormal_pivot():
    # below the least normal float top/|top| is no longer a unit
    f = cmor([[1e-310j, 0], [0, 0]])
    assert canonical_rep(f).array.tobytes() == f.array.tobytes()


def test_canonical_rep_fixes_zero():
    z = cmor([[0, 0], [0, 0]])
    assert canonical_rep(z).array.tobytes() == z.array.tobytes()


def _tampered_lift(monkeypatch, victim, forged):
    """Make ``wproj.lift`` hand back ``forged``'s doubled matrix for
    ``victim``, and the honest one for every other representative."""
    from sccckit import wproj
    honest = wproj.lift
    calls = []

    def tampered(f):
        calls.append(f)
        return honest(forged if f is victim else f)

    monkeypatch.setattr(wproj, "lift", tampered)
    return calls


def test_tampered_class_is_detected(monkeypatch):
    # a doubled form that is not f's own: the doubled-form criterion alone
    # says no, and wequal refuses to answer
    f = cmor([[1, 2], [3, 4]])
    twin = cmor([[1, 2], [3, 4]])
    _tampered_lift(monkeypatch, f, cmor([[1, 0], [0, 1]]))
    with pytest.raises(CriterionDisagreement,
                       match="doubled=False lower=True projector=True"):
        wequal(f, twin)


def test_explicit_doubled_form_is_kept(monkeypatch, double_calls):
    # criterion 1 compares exactly the doubled matrices lift computes, one per
    # representative, and builds no doubled arrow of its own
    f = cmor([[1, 2], [3, 4]])
    twin = cmor([[1, 2], [3, 4]])
    lifted = _tampered_lift(monkeypatch, f, cmor([[1, 0], [0, 1]]))
    with pytest.raises(CriterionDisagreement):
        wequal(f, twin)
    assert len(lifted) == 2 and lifted[0] is f and lifted[1] is twin
    assert double_calls == []


def test_quotient_scalars_are_doubled():
    w = WProjModel(fdhilb())
    four = w.scalar(4.0)
    assert complex(four.array[0, 0]) == pytest.approx(2.0)
    assert w.scalar_value(four) == pytest.approx(4.0)
    # |1+i|^2 = 2
    assert w.scalar_value(scalar(1 + 1j, COMPLEX)) == pytest.approx(2.0)
    with pytest.raises(TypeMismatch):
        w.scalar_value(cmor([[1, 2]]))
    with pytest.raises(TypeMismatch):
        w.scalar(-1.0)


def test_doubles_faithful_without_phases():
    # over booleans there is nothing to quotient: exhaustive 2x2 check
    seen = {}
    for cells in product([False, True], repeat=4):
        arr = np.array(cells, dtype=np.bool_).reshape(2, 2)
        f = Morphism(Q, Q, arr, rel_model().semiring)
        key = double(f).array.tobytes()
        if key in seen:
            assert np.array_equal(seen[key], arr)
        seen[key] = arr
    assert len(seen) == 16


def test_prep_state_fails_in_fdhilb_with_a_phase_witness():
    report = run_suite("prep-state", M, trials=50, seed=2)
    assert report.ok
    statuses = {r.check_name: r.status for r in report.results}
    assert statuses["doubles-determine-morphisms"] == "expected-fail"
    w = next(r.witness for r in report.results
             if r.check_name == "doubles-determine-morphisms")
    f = deserialize_morphism(w["f"], M)
    g = deserialize_morphism(w["g"], M)
    assert equal(g, scalar_mult(scalar(1j, COMPLEX), f))
    assert not equal(f, g)
    assert equal(double(f), double(g))


def test_prep_state_holds_in_the_quotient_and_in_rel():
    for model in (WProjModel(fdhilb()), rel_model()):
        report = run_suite("prep-state", model, trials=50, seed=2)
        assert report.ok
        assert all(r.status == "pass" for r in report.results)


@pytest.fixture
def double_calls(monkeypatch):
    """Counts calls to core.double, the doubled form's only builder."""
    from sccckit import core
    calls = []
    real = core.double

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(core, "double", counting)
    return calls


@pytest.mark.parametrize("model,pairs,doubles", [
    (weight_model(), 6732, 102), (rel_model(), 292, 26)], ids=["weights", "rel"])
def test_the_exhaustive_row_compares_whole_shape_classes(monkeypatch, double_calls,
                                                         model, pairs, doubles):
    # one doubled form per matrix, and each matrix meets its shape class in
    # two equal_to_each calls: no pair is decided by a matrix equality call
    equal_calls = []

    def counting(name, real):
        def call(*args, **kwargs):
            equal_calls.append(name)
            return real(*args, **kwargs)
        return call

    s = model.semiring
    monkeypatch.setitem(vars(s), "approx_equal",
                        counting("approx_equal", s.approx_equal))
    monkeypatch.setattr(ModelHandle, "equal",
                        counting("ModelHandle.equal", ModelHandle.equal))
    row = next(c for c in suites.prep_state_checks(model, None)
               if c.name == "doubles-determine-morphisms-exhaustive")
    assert row.fn(None) == Held({"pairs_checked": pairs})
    assert equal_calls == []
    assert len(double_calls) == doubles


def _pairwise_grid(model, tol):
    """The exhaustive row decided one pair at a time through ``model.equal``:
    the reference the batched grid must reproduce, witness and count."""
    entries = model.semiring.multiples(3)
    checked = 0
    for rows, cols in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        dom = UNIT if cols == 1 else Gen("A", cols)
        cod = UNIT if rows == 1 else Gen("B", rows)
        mats = [Morphism(dom, cod, np.array(v).reshape(rows, cols), model.semiring)
                for v in product(entries, repeat=rows * cols)]
        doubles = [core.double(f) for f in mats]
        for i, f in enumerate(mats):
            for j, g in enumerate(mats):
                if (model.equal(doubles[i], doubles[j], tol)
                        and not model.equal(f, g, tol)):
                    return {"f": serialize_morphism(f), "g": serialize_morphism(g)}
                checked += 1
    return Held({"pairs_checked": checked})


def _capped_double(f):
    """The doubled form of f with its entries capped at 1: on weights,
    [[1]] and [[2]] share one."""
    return double(Morphism(f.dom, f.cod, np.minimum(f.array, 1), f.semiring))


@pytest.mark.parametrize("mutant", [None, _capped_double], ids=["healthy", "capped-double"])
@pytest.mark.parametrize("model", [weight_model(), rel_model()], ids=["weights", "rel"])
@pytest.mark.parametrize("tol", [None, 1e3])
def test_the_batched_grid_reproduces_the_pairwise_grid(monkeypatch, model, mutant, tol):
    if mutant is not None:
        monkeypatch.setattr(core, "double", mutant)
    assert suites._grid_check(model, tol) == _pairwise_grid(model, tol)


EDGES = [0.0, -0.0, 5e-324, 1e-200, 1e200, 1e308]  # 1e308 squared overflows


def _scalar_entries(s, rng):
    """1,000 random entries of s, then the signed zeros, the smallest
    subnormal and the huge values (over the complex numbers also on the
    imaginary axis and on both axes at once)."""
    drawn = list(np.asarray(s.sample(rng, (1000,)), dtype=s.dtype))
    if s.exact:
        return drawn + [s.zero, s.one]
    if s is COMPLEX:
        return drawn + [c for e in EDGES
                         for c in (complex(e, 0.0), complex(0.0, e), complex(e, e),
                                   complex(-e, -e))]
    return drawn + EDGES


def _bits(v):
    return type(v), np.asarray(v).tobytes()


def _read(w, x):
    """w.scalar_value(x) bit for bit, or the refusal it raised."""
    try:
        return _bits(w.scalar_value(x))
    except (TypeMismatch, NumericRange) as exc:
        return str(exc)


def test_quotient_scalar_value_is_read_without_doubling(double_calls):
    # a quotient scalar's value is read bit for bit as from its doubled form,
    # and without building one
    rng = np.random.default_rng(34)
    for base in (fdhilb(), rel_model(), weight_model()):
        w, s = WProjModel(base), base.semiring
        with np.errstate(over="ignore", invalid="ignore"):  # the huge entries
            for c in _scalar_entries(s, rng):
                x = scalar(c, s)
                got = _read(w, x)
                assert double_calls == [], (base.name, c)
                doubled = morphisms.scalar_value(double(x))
                if not np.isfinite(doubled):
                    assert isinstance(got, str) and "not finite" in got, (base.name, c)
                    continue
                if s is COMPLEX:
                    # non-real past 1e-9 of the value's magnitude, or of 1
                    if abs(doubled.imag) > 1e-9 * max(1.0, abs(doubled)):
                        assert isinstance(got, str) and "non-real" in got, (base.name, c)
                        continue
                    doubled = doubled.real
                assert got == _bits(doubled), (base.name, c)


def test_large_quotient_scalars_are_read_and_non_real_ones_refused():
    # c c(dagger) carries a rounding residual in its imaginary part that
    # grows with |c|^2; at |c| near 1e5 it is far above 1e-9 yet far below
    # the value
    w = WProjModel(fdhilb())
    rng = np.random.default_rng(35)
    for theta in rng.uniform(0, 2 * np.pi, 200):
        c = 1e5 * np.exp(1j * theta)
        assert w.scalar_value(scalar(c, COMPLEX)) == pytest.approx(1e10)
    # under the identity involution the value is c^2 = 1e10 i: refused
    bad = scalar(1e5 * np.exp(1j * np.pi / 4), corrupted_complex())
    with pytest.raises(TypeMismatch, match="non-real"):
        w.scalar_value(bad)


# -- wequal_to: one f against many g ----------------------------------------------

def _fresh_verdict(f, g, rel):
    """wequal's three criteria, each from matrices computed afresh for the
    pair: the verdict they share, or the error the comparison raises."""
    try:
        wproj._same_type(f, g)
        s = f.semiring
        verdicts = [s.approx_equal(crit(f), crit(g), rel) for crit in
                    (wproj.lift, wproj._lowered, core.projector_array)]
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return type(exc), str(exc)
    if len(set(verdicts)) > 1:
        return CriterionDisagreement, None
    return verdicts[0]


def _predicate_verdict(pred, g):
    try:
        return pred(g)
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return type(exc), None if isinstance(exc, CriterionDisagreement) else str(exc)


def test_a_predicate_reused_on_the_straddle_tables_decides_as_wequal():
    # one predicate per f meets g, f itself and g again: each verdict is the
    # one the three criteria give on matrices computed afresh for that pair
    from test_phase_align import RELS, _edges, _straddling
    for rel in RELS:
        rng = np.random.default_rng(61)
        for kind, f, g in [*_straddling(rel, rng), *_edges(rng)]:
            pred = wproj.wequal_to(f, rel)
            with np.errstate(all="ignore"):
                for other in (g, f, g):
                    want = _fresh_verdict(f, other, rel)
                    assert _predicate_verdict(pred, other) == want, (kind, rel)
                    assert _predicate_verdict(lambda x: wproj.wequal_to(f, rel)(x), other) == want


def test_a_predicate_refuses_a_mistyped_g_as_wequal_does():
    f = cmor([[1, 2], [3, 4]])
    pred = wproj.wequal_to(f)
    for _ in range(2):
        with pytest.raises(TypeMismatch, match=r"^cannot compare A\[2\]->B\[2\] with A\[3\]->B\[2\]$"):
            pred(cmor([[1, 2, 3], [4, 5, 6]]))
    assert pred(scalar_mult(phase(0.3), f)) is True


def test_a_predicate_refuses_a_tampered_class_as_wequal_does(monkeypatch):
    # f's forged doubled form is kept and meets each twin: the split is
    # reported on every call, in wequal's words
    f = cmor([[1, 2], [3, 4]])
    lifted = _tampered_lift(monkeypatch, f, cmor([[1, 0], [0, 1]]))
    pred = wproj.wequal_to(f)
    for twin in (cmor([[1, 2], [3, 4]]), scalar_mult(phase(1.0), f)):
        with pytest.raises(CriterionDisagreement,
                           match="^equality criteria disagree: doubled=False "
                                 "lower=True projector=True$"):
            pred(twin)
    assert [x is f for x in lifted] == [True, False, False]


def _counted_lift(monkeypatch):
    calls = []
    honest = wproj.lift

    def counting(f):
        calls.append(f)
        return honest(f)

    monkeypatch.setattr(wproj, "lift", counting)
    return calls


def test_building_a_predicate_computes_nothing(monkeypatch):
    calls = _counted_lift(monkeypatch)
    f = cmor([[1, 2], [3, 4]])
    pred = wproj.wequal_to(f)
    assert calls == []
    assert pred(f) and pred(scalar_mult(phase(2.0), f))
    assert len(calls) == 3 and calls[0] is f


def test_a_teleport_lifts_its_target_once(monkeypatch):
    from sccckit import run_teleportation
    run_teleportation()  # the collapse witness is built once per process
    calls = _counted_lift(monkeypatch)
    assert run_teleportation(seed=3).ok
    # the target once, then the four corrected outputs of the rotated run
    assert len(calls) == 5


@pytest.mark.parametrize("selector,lifts", [("wproj:fdhilb", 4), ("wproj:rel", 3)])
def test_a_criteria_trial_lifts_its_f_once(monkeypatch, selector, lifts):
    from sccckit import resolve_model
    from sccckit.suites import _wproj_checks
    row = next(c for c in _wproj_checks(resolve_model(selector), None, 3)
               if c.name == "equality-criteria-agree")
    calls = _counted_lift(monkeypatch)
    assert row.fn(np.random.default_rng(5)) is None
    # f once, then rotated and g, and on fdhilb the weight-doubled f
    assert len(calls) == lifts


def test_a_computation_that_raises_is_not_kept(monkeypatch):
    f = cmor([[1, 2], [3, 4]])
    calls = _counted_lift(monkeypatch)
    honest = core.projector_array
    failures = [RuntimeError("first projector fails")]

    def failing_once(x):
        if x is f and failures:
            raise failures.pop()
        return honest(x)

    monkeypatch.setattr(core, "projector_array", failing_once)
    g = scalar_mult(phase(0.5), f)
    pred = wproj.wequal_to(f)
    with pytest.raises(RuntimeError, match="first projector fails"):
        pred(g)
    # f's lift was computed before the failure and is computed again
    assert pred(g) is True
    assert [x is f for x in calls] == [True, True, False]


def test_a_lift_that_always_raises_raises_on_every_call(monkeypatch):
    f = cmor([[1, 2], [3, 4]])
    attempts = []

    def refusing(x):
        attempts.append(x)
        raise NotPhaseEquivalent("no doubled form")

    monkeypatch.setattr(wproj, "lift", refusing)
    pred = wproj.wequal_to(f)
    for _ in range(2):
        with pytest.raises(NotPhaseEquivalent, match="no doubled form"):
            pred(f)
    assert attempts == [f, f]


def test_a_target_that_cannot_be_lifted_fails_each_branch_row(monkeypatch):
    from sccckit import run_teleportation
    run_teleportation()  # the collapse witness is built once per process
    honest = wproj.lift
    attempts = []

    def refusing_the_target(x):
        # the rotated run's target at unit weight is (1/2) psi for psi = |0>
        if np.array_equal(x.array, [[0.5], [0.0]]):
            attempts.append(x)
            raise NotPhaseEquivalent("the target has no doubled form")
        return honest(x)

    monkeypatch.setattr(wproj, "lift", refusing_the_target)
    report = run_teleportation()
    failed = {r.check_name: r.witness for r in report.results if r.status == "fail"}
    assert failed == {f"branch-{i}": {"error": "the target has no doubled form",
                                      "trial": 0} for i in range(4)}
    assert len(attempts) == 4


def test_quotient_equality_refuses_overflowing_doubled_forms_unwarned():
    # the doubled value of 1e200 overflows: equality refuses it with
    # NumericRange and no RuntimeWarning, as a 1 x 1 pair and inside a 2 x 2 one
    w = resolve_model("wproj:fdhilb")
    pairs = [(scalar(1e200, COMPLEX), scalar(1e200, COMPLEX)),
             (cmor([[1e200, 0], [0, 1]]), cmor([[1e200, 0], [0, 1]]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, g in pairs:
            with pytest.raises(NumericRange, match="the doubled forms of .* are not finite"):
                w.equal(f, g)
