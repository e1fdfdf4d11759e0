"""One model interface: the phase quotient is a ModelHandle that computes
every structural operation on representatives and overrides only rep/lift,
equality and scalars."""

import numpy as np
import pytest

from sccckit import (
    COMPLEX,
    Gen,
    ModelHandle,
    Morphism,
    Oplus,
    UNIT,
    WProjModel,
    corrupted_trace,
    decomposition,
    fdhilb,
    identity,
    lift,
    rel_model,
    scalar_value,
    wequal,
)

A, B, C = Gen("A", 2), Gen("B", 3), Gen("C", 2)


def _operations(m):
    """(operation, arguments) pairs; Morphism arguments get lifted."""
    rng = np.random.default_rng(11)
    f = m.sample_morphism(rng, A, B)
    g = m.sample_morphism(rng, B, C)
    h = m.sample_morphism(rng, A, B)
    e = m.sample_morphism(rng, A, A)
    d = decomposition(A, B)
    return [
        ("identity", [A]),
        ("zero", [A, B]),
        ("morphism", [A, B, f.array]),
        ("compose", [g, f]),
        ("tensor", [f, g]),
        ("dagger", [f]),
        ("oplus", [f, g]),
        ("trace", [e]),
        ("norm_sq", [f]),
        ("projection", [d, 1]),
        ("injection", [d, 0]),
        ("derived_sum", [f, h]),
    ]


@pytest.mark.parametrize("make", [fdhilb, rel_model])
def test_quotient_operations_are_lifted_base_operations(make):
    m = make()
    w = WProjModel(m)
    for op, args in _operations(m):
        lifted = [lift(x) if isinstance(x, Morphism) else x for x in args]
        got = getattr(w, op)(*lifted)
        want = lift(getattr(m, op)(*args))
        assert wequal(got, want).equal, op


@pytest.mark.parametrize("make", [fdhilb, rel_model])
def test_quotient_samplers_lift_the_base_draw(make):
    m = make()
    w = WProjModel(m)
    for op, args in [("sample_morphism", [A, B]), ("sample_state", [A]),
                     ("sample_positive", [A]), ("sample_unit_scalar", [])]:
        got = getattr(w, op)(np.random.default_rng(5), *args)
        want = getattr(m, op)(np.random.default_rng(5), *args)
        assert wequal(got, lift(want)).equal, op
        assert w.rep(got).semiring is m.semiring, op


def test_quotient_is_a_model_handle():
    w = WProjModel(fdhilb())
    assert isinstance(w, ModelHandle)
    assert w.quotient is True
    assert fdhilb().quotient is False and rel_model().quotient is False
    f = fdhilb().identity(A)
    assert fdhilb().rep(f) is f and fdhilb().lift(f) is f
    assert w.rep(w.lift(f)) is f


def test_corrupted_trace_drops_an_entry_on_the_quotient():
    w = WProjModel(fdhilb())
    tr = corrupted_trace(w)
    three = tr(w.identity(Gen("A", 3)))
    assert scalar_value(w.rep(three)) == pytest.approx(2.0)
    assert w.scalar_value(three) == pytest.approx(4.0)
    two = tr(w.lift(identity(Oplus(UNIT, UNIT), COMPLEX)))
    assert scalar_value(w.rep(two)) == pytest.approx(1.0)
