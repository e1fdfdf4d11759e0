"""Object expression laws: dimensions, duals, the text round trip, interning."""

import copy
import pickle

import hypothesis.strategies as st
from hypothesis import given

from sccckit import (
    UNIT,
    ZERO,
    Dual,
    Gen,
    Oplus,
    Tensor,
    dim,
    dual,
    format_object,
    normalize,
    parse_object,
)

import pytest


def objects(max_leaves=5):
    leaves = st.one_of(
        st.just(UNIT),
        st.just(ZERO),
        st.builds(Gen, st.sampled_from("ABCDE"), st.integers(1, 4)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Tensor, inner, inner),
            st.builds(Oplus, inner, inner),
            st.builds(Dual, inner),
        ),
        max_leaves=max_leaves,
    )


def test_dim_oracle():
    # dim(A (x) (I (+) B)) = 3 * (1 + 2) = 9, counted by hand
    a = Tensor(Gen("A", 3), Oplus(UNIT, Gen("B", 2)))
    assert dim(a) == 9
    assert dim(UNIT) == 1
    assert dim(ZERO) == 0
    assert dim(dual(a)) == 9


@given(objects(), objects())
def test_dim_multiplicative_additive(a, b):
    # dim(a (x) b) = dim(a) * dim(b),  dim(a (+) b) = dim(a) + dim(b)
    assert dim(Tensor(a, b)) == dim(a) * dim(b)
    assert dim(Oplus(a, b)) == dim(a) + dim(b)


@given(objects())
def test_dual_is_involutive(a):
    assert dual(dual(a)) == normalize(a)


def test_dual_normal_forms():
    a, b = Gen("A", 2), Gen("B", 3)
    # duals push through both connectives and die on the units
    assert format_object(dual(Tensor(a, b))) == "A[2]*@B[3]*"
    assert format_object(dual(Oplus(a, b))) == "A[2]*+B[3]*"
    assert dual(UNIT) == UNIT
    assert dual(ZERO) == ZERO
    assert normalize(Dual(Dual(a))) == a


@given(objects())
def test_format_parse_round_trip(a):
    assert normalize(parse_object(format_object(a))) == normalize(a)


def test_parse_oracle_strings():
    assert dim(parse_object("A[2]* @ (I + B[3])")) == 8
    assert parse_object("I") == UNIT
    assert parse_object("0") == ZERO
    assert normalize(parse_object("(A[2]+I)*")) == dual(Oplus(Gen("A", 2), UNIT))


@pytest.mark.parametrize("bad", ["", "A[", "A[0", "Q", "A[2] +", "(I", "A'[2]"])
def test_parse_rejects_garbage(bad):
    with pytest.raises((ValueError, KeyError)):
        parse_object(bad)


def test_gen_rejects_bad_names():
    with pytest.raises(ValueError):
        Gen("A'", 2)
    with pytest.raises(ValueError):
        Gen("", 2)
    with pytest.raises(ValueError):
        Gen("A", 0)


def rebuild(a):
    """A second, independent build of the same tree through the constructors."""
    if isinstance(a, Gen):
        return Gen(a.name, a.dim, a.dualized)
    if isinstance(a, Dual):
        return Dual(rebuild(a.base))
    if isinstance(a, (Tensor, Oplus)):
        return type(a)(rebuild(a.left), rebuild(a.right))
    return type(a)()


@given(objects())
def test_equal_trees_are_one_node(a):
    assert rebuild(a) is a
    assert hash(rebuild(a)) == hash(a)
    assert normalize(parse_object(format_object(a))) is normalize(a)


def test_gen_default_flag_is_the_same_node():
    assert Gen("A", 2) is Gen("A", 2, False)
    assert Gen("A", 2) is not Gen("A", 2, True)
    assert Gen("A", 2) != Gen("A", 3)
    assert Tensor(Gen("A", 2), UNIT) is not Oplus(Gen("A", 2), UNIT)


def test_nodes_are_immutable_and_copy_to_themselves():
    a = Tensor(Dual(Gen("A", 2)), Oplus(UNIT, ZERO))
    with pytest.raises(AttributeError):
        a.left = UNIT
    with pytest.raises(AttributeError):
        Gen("A", 2).dim = 3
    with pytest.raises(AttributeError):
        del a.right
    assert Gen("A", 2).dim == 2
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a


@pytest.mark.parametrize("name, d", [("A'", 2), ("", 2), ("I", 1), ("A", 0), ("A", -1)])
def test_refused_gen_is_refused_every_time(name, d):
    for _ in range(3):
        with pytest.raises(ValueError):
            Gen(name, d)


def test_repr_stays_readable():
    a = Tensor(Gen("A", 2), Dual(Oplus(UNIT, ZERO)))
    assert repr(a) == ("Tensor(left=Gen(name='A', dim=2, dualized=False), "
                       "right=Dual(base=Oplus(left=Unit(), right=Zero())))")
