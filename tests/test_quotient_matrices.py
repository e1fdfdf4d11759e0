"""Names and quotient equality on matrices, against the typed composites.

``core.name_array``, ``core.projector_array`` and the criteria of
``wproj.wequal`` run the semiring's kernels on plain arrays.  The typed
composites they stand for are written out below; every matrix must equal
its typed twin byte for byte, so every verdict is the one the typed
criteria give, near the tolerances too.
"""
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from sccckit import (BOOLEAN, COMPLEX, NONNEG, UNIT, ZERO, CriterionDisagreement,
                     Gen, Morphism, Oplus, Tensor, TypeMismatch, WProjModel,
                     compose, core, dagger, dim, double, dual, equal, fdhilb,
                     identity, lower_star, morphisms, tensor, unit, wequal,
                     wproj)
from sccckit.models import semiring_model
from sccckit.semirings import ABS_TOL, REL_TOL

A, B = Gen("A", 2), Gen("B", 3)
OBJECTS = [UNIT, ZERO, A, dual(B), Tensor(A, dual(A)),
           Oplus(Tensor(UNIT, A), dual(Gen("C", 1)))]


def typed_name(f):
    s = f.semiring
    return compose(tensor(identity(dual(f.dom), s), f), unit(f.dom, s))


def typed_lowered(f):
    return tensor(f, lower_star(f))


def typed_projector(f):
    n = typed_name(f)
    return compose(n, dagger(n))


def typed_criteria(f, g, rel):
    return (equal(double(f), double(g), rel),
            equal(typed_lowered(f), typed_lowered(g), rel),
            equal(typed_projector(f), typed_projector(g), rel))


def same_bytes(arr, typed):
    return (arr.dtype == typed.array.dtype and arr.shape == typed.array.shape
            and arr.tobytes() == typed.array.tobytes())


def sample(s, rng, dom, cod):
    """A sampled arrow, with signed zeros in some entries off the booleans."""
    arr = s.sample(rng, (dim(cod), dim(dom)))
    if s is not BOOLEAN and arr.size:
        arr.flat[rng.integers(0, arr.size, 2)] = -0.0
        if s is COMPLEX:
            arr.flat[-1] = complex(0.0, -0.0)
    return Morphism(dom, cod, arr, s)


def verdicts(f, g, rel=None):
    """wequal's verdict, shared by its three criteria, or the exception it
    raised."""
    try:
        verdict = wproj.wequal_to(f, rel)(g)
    except CriterionDisagreement:
        return CriterionDisagreement
    return (verdict,) * 3


def expected(f, g, rel=None):
    typed = typed_criteria(f, g, rel)
    return typed if len(set(typed)) == 1 else CriterionDisagreement


@pytest.mark.parametrize("s", [COMPLEX, BOOLEAN, NONNEG], ids=lambda s: s.name)
def test_matrices_equal_the_typed_composites_byte_for_byte(s):
    rng = np.random.default_rng(41)
    for dom in OBJECTS:
        for cod in OBJECTS:
            for _ in range(3):
                f = sample(s, rng, dom, cod)
                assert same_bytes(core.name_array(f), typed_name(f)), (dom, cod)
                assert core.name(f).cod == typed_name(f).cod
                assert same_bytes(core.name(f).array, typed_name(f))
                assert same_bytes(wproj.lift(f), double(f))
                assert same_bytes(wproj._lowered(f), typed_lowered(f))
                assert same_bytes(core.projector_array(f), typed_projector(f))
                assert core.bipartite_projector(f).dom == typed_projector(f).dom
                assert core.bipartite_projector(f).cod == typed_projector(f).cod
                assert same_bytes(core.bipartite_projector(f).array,
                                  typed_projector(f))
                g = sample(s, rng, dom, cod)
                for pair in ((f, f), (f, g)):
                    assert verdicts(*pair) == expected(*pair)


def _straddling_pairs(s):
    """Pairs f, (1 + eps) f whose doubled-form gap is k times the threshold
    in force: ABS_TOL on small entries, REL_TOL times the scale on large ones.

    The three criteria compare the same products f_ij f_kl(dagger) in other
    orders, so their gaps sit at the threshold together."""
    rng = np.random.default_rng(43)
    for scale, threshold in ((1e-3, "abs"), (1e2, "rel")):
        for k in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0):
            for _ in range(3):
                f = Morphism(A, B, sample(s, rng, A, B).array * scale, s)
                top = np.abs(double(f).array).max()
                eps = k * (ABS_TOL / top if threshold == "abs" else REL_TOL) / 2
                yield threshold, f, Morphism(A, B, f.array * (1 + eps), s)


@pytest.mark.parametrize("s", [COMPLEX, NONNEG], ids=lambda s: s.name)
@pytest.mark.parametrize("rel", [None, 1e-6], ids=["default-rel", "rel-1e-6"])
def test_verdicts_equal_the_typed_criteria_at_the_tolerances(s, rel):
    seen = set()
    for threshold, f, g in _straddling_pairs(s):
        want = expected(f, g, rel)
        assert verdicts(f, g, rel) == want
        seen.add((threshold, want if want is CriterionDisagreement else want[0]))
    if rel is None:
        # both verdicts occur at each threshold, so the pairs do straddle it
        assert {(t, v) for t in ("abs", "rel") for v in (True, False)} <= seen, seen


def test_boolean_verdicts_equal_the_typed_criteria_exhaustively():
    cells = [np.array(v, dtype=bool).reshape(2, 2)
             for v in np.ndindex(2, 2, 2, 2)]
    mats = [Morphism(A, A, c, BOOLEAN) for c in cells]
    for f in mats:
        for g in mats:
            assert verdicts(f, g) == expected(f, g)


def _misbehaving(field):
    """A copy of COMPLEX whose ``field`` kernel drops a row once switched on."""
    state = {"on": False}
    kernel = getattr(COMPLEX, field)

    def broken(*args):
        out = kernel(*args)
        return out[:-1] if state["on"] else out

    return replace(COMPLEX, name=f"short-{field}", **{field: broken}), state


@pytest.mark.parametrize("field", ["kron", "matmul", "involution"])
def test_a_kernel_of_the_wrong_shape_raises_type_mismatch(field):
    s, state = _misbehaving(field)
    rng = np.random.default_rng(47)
    f, g = sample(s, rng, A, B), sample(s, rng, A, B)
    state["on"] = True
    with pytest.raises(TypeMismatch, match=f"short-{field} kernel returned shape"):
        wequal(f, g)
    if field != "involution":  # names take transposes, never the involution
        with pytest.raises(TypeMismatch, match=f"short-{field} kernel returned shape"):
            core.name_array(f)
    with pytest.raises(TypeMismatch, match=f"short-{field} kernel returned shape"):
        core.bipartite_projector(f)


def test_kernel_output_is_coerced_to_the_semiring_dtype():
    s = replace(COMPLEX, name="list-kron",
                kron=lambda a, b: COMPLEX.kron(a, b).tolist())
    f = sample(s, np.random.default_rng(53), A, B)
    plain = Morphism(A, B, f.array, COMPLEX)
    assert core.name_array(f).dtype == COMPLEX.dtype
    assert core.name_array(f).tobytes() == core.name_array(plain).tobytes()
    assert wproj._lowered(f).tobytes() == wproj._lowered(plain).tobytes()


def test_quotient_equality_builds_only_the_arrows_it_reads(monkeypatch):
    # wequal compares matrices: the arrows built are the two lower stars of
    # criterion 2 and the transpose f* each name takes through ``star``;
    # the quotient's equal settles an independent pair by phase alignment,
    # on the representatives' own arrays, and builds none
    model = WProjModel(fdhilb())
    rng = np.random.default_rng(59)
    f = model.sample_morphism(rng, A, B)
    g = model.sample_morphism(rng, A, B)
    wequal(f, g)  # fill the memoized units first
    calls = Counter()
    derived = morphisms._derived

    def counting(*args):
        calls[sys._getframe(1).f_code.co_name] += 1
        return derived(*args)

    monkeypatch.setattr(morphisms, "_derived", counting)
    assert wequal(f, g) is False
    assert calls == {"lower_star": 2, "star": 2}
    calls.clear()
    assert model.equal(f, g) is False
    assert calls == {}


@pytest.mark.parametrize("s", [COMPLEX, NONNEG, BOOLEAN], ids=lambda s: s.name)
def test_trace_and_quotient_scalars_build_only_the_arrow_they_return(monkeypatch, s):
    # trace reads f's name column in closed form, so its 1 x 1 result is the
    # one arrow it builds and no kron runs; the quotient reads a scalar's
    # doubled value as one product of its entry and builds no arrow
    calls = Counter()

    def counting_kron(a, b):
        calls["kron"] += 1
        return s.kron(a, b)

    counted = replace(s, name=f"counted-{s.name}", kron=counting_kron)
    model = WProjModel(semiring_model(counted))
    rng = np.random.default_rng(67)
    arrows = [sample(counted, rng, a, a) for a in OBJECTS]
    scalars = [sample(counted, rng, UNIT, UNIT) for _ in range(4)]
    for f in arrows:
        core.trace(f)  # fill the memoized counits first
    calls.clear()
    derived = morphisms._derived

    def counting(*args):
        calls[sys._getframe(1).f_code.co_name] += 1
        return derived(*args)

    def constructed(self):
        calls["Morphism"] += 1

    monkeypatch.setattr(morphisms, "_derived", counting)
    monkeypatch.setattr(core, "_derived", counting)
    monkeypatch.setattr(Morphism, "__post_init__", constructed)
    for f in arrows:
        core.trace(f)
    assert calls == {"trace": len(arrows)}
    calls.clear()
    for c in scalars:
        model.scalar_value(c)
    assert calls == {}
