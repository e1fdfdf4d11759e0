"""One model interface: a model samples, decides equality and reads scalars.

Every table computes on plain matrices; the phase quotient keeps the
matrices of its base and overrides only equality and the scalar reads."""

import inspect

import numpy as np
import pytest

from sccckit import (
    Gen,
    ModelHandle,
    Morphism,
    Oplus,
    UNIT,
    WProjModel,
    corrupted_trace,
    fdhilb,
    identity,
    rel_model,
    scalar_value,
    weight_model,
)

A = Gen("A", 2)

INTERFACE = {"scalar", "equal", "scalar_value", "scalar_power", "sample_morphism",
             "sample_positive", "sample_unit_scalar"}


def _public_methods(cls, own=False):
    names = vars(cls) if own else dir(cls)
    return {n for n in names
            if not n.startswith("_") and inspect.isfunction(getattr(cls, n))}


def test_a_model_has_exactly_the_interface_methods():
    assert _public_methods(ModelHandle) == INTERFACE
    assert _public_methods(WProjModel) == INTERFACE
    assert _public_methods(WProjModel, own=True) == {"equal", "scalar", "scalar_value"}


@pytest.mark.parametrize("make", [fdhilb, rel_model, weight_model])
def test_quotient_samplers_lift_the_base_draw(make):
    # a quotient arrow is handed around as its representative: the base's draw
    m = make()
    w = WProjModel(m)
    for op, args in [("sample_morphism", [A, Gen("B", 3)]), ("sample_positive", [A]),
                     ("sample_unit_scalar", [])]:
        got = getattr(w, op)(np.random.default_rng(5), *args)
        want = getattr(m, op)(np.random.default_rng(5), *args)
        assert type(got) is Morphism and type(want) is Morphism, op
        assert (got.dom, got.cod, got.semiring) == (want.dom, want.cod, want.semiring), op
        assert got.array.dtype == want.array.dtype, op
        assert got.array.tobytes() == want.array.tobytes(), op


def test_quotient_is_a_model_handle():
    w = WProjModel(fdhilb())
    assert isinstance(w, ModelHandle)
    assert w.quotient is True and w.base is fdhilb()
    assert fdhilb().quotient is False and rel_model().quotient is False
    assert w.semiring is fdhilb().semiring
    with pytest.raises(ValueError):
        WProjModel(w)


def test_corrupted_trace_drops_an_entry_on_the_quotient():
    w = WProjModel(fdhilb())
    three = corrupted_trace(identity(Gen("A", 3), w.semiring))
    assert scalar_value(three) == pytest.approx(2.0)
    assert w.scalar_value(three) == pytest.approx(4.0)
    two = corrupted_trace(identity(Oplus(UNIT, UNIT), w.semiring))
    assert scalar_value(two) == pytest.approx(1.0)
