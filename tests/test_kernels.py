"""The broadcast Kronecker kernel and the trusted constructor of derived morphisms.

``np.kron`` is kept here as the reference the shipped kernel must reproduce
bit for bit; the results of compose, tensor, dagger, star, lower_star,
direct_sum and scalar must be exactly what the checked ``Morphism(...)``
constructor would have built.
"""

import dataclasses
from itertools import product

import numpy as np
import pytest

from sccckit import (
    BOOLEAN,
    COMPLEX,
    NONNEG,
    ZERO,
    Dual,
    Gen,
    Morphism,
    Tensor,
    TypeMismatch,
    UNIT,
    compose,
    dagger,
    dim,
    direct_sum,
    equal,
    lower_star,
    normalize,
    scalar,
    star,
    tensor,
)
from sccckit.semirings import corrupted_complex

SHAPES = [(0, 3), (3, 0), (0, 0), (1, 4), (4, 1), (1, 1), (2, 3), (8, 8)]


def _reference_kron(s, a, b):
    if s is BOOLEAN:
        return np.kron(a.astype(np.uint8), b.astype(np.uint8)) > 0
    return np.kron(a, b)


@pytest.mark.parametrize("s", [COMPLEX, NONNEG, BOOLEAN], ids=lambda s: s.name)
def test_kron_matches_numpy_reference(s):
    rng = np.random.default_rng(5)
    for sa, sb in product(SHAPES, repeat=2):
        a = np.asarray(s.sample(rng, sa), dtype=s.dtype)
        b = np.asarray(s.sample(rng, sb), dtype=s.dtype)
        # transposed (non-contiguous) operands, as dagger hands them over
        for x, y in ((a, b), (a, b.T), (a.T, b)):
            got, want = s.kron(x, y), _reference_kron(s, x, y)
            assert got.dtype == want.dtype, (sa, sb)
            assert np.array_equal(got, want), (sa, sb)


A, B = Gen("A", 2), Gen("B", 3)


def _operands(s):
    rng = np.random.default_rng(9)

    def mor(dom, cod):
        return Morphism(dom, cod, s.sample(rng, (dim(cod), dim(dom))), s)

    f = mor(A, Dual(B))                      # a dual end, normalized to B*
    g = mor(Dual(B), Tensor(A, Dual(Tensor(A, B))))
    h = mor(ZERO, A)                         # a zero block
    z = mor(ZERO, ZERO)
    u = mor(UNIT, Dual(Dual(A)))
    return f, g, h, z, u


def _derived_results(s):
    f, g, h, z, u = _operands(s)
    return [
        compose(g, f), compose(f, h), compose(z, z),
        tensor(f, g), tensor(f, h), tensor(u, f), tensor(z, u),
        dagger(f), dagger(g), dagger(h), dagger(dagger(f)),
        direct_sum(f, h), direct_sum(z, f), direct_sum(z, z), direct_sum(u, g),
        star(f), star(g), star(h), star(z), star(u), star(star(g)),
        lower_star(f), lower_star(g), lower_star(h), lower_star(z), lower_star(u),
        lower_star(star(f)), star(lower_star(g)),
        scalar(s.zero, s), scalar(s.one, s), scalar(f.array[1, 0].item(), s),
    ]


@pytest.mark.parametrize("s", [COMPLEX, BOOLEAN, NONNEG, corrupted_complex()],
                         ids=lambda s: s.name)
def test_trusted_results_equal_checked_construction(s):
    for r in _derived_results(s):
        assert r.dom == normalize(r.dom) and r.cod == normalize(r.cod), r
        assert r.array.dtype == np.dtype(s.dtype), r
        assert not r.array.flags.writeable, r
        assert r.semiring is s
        assert equal(r, Morphism(r.dom, r.cod, r.array, s)), r


@pytest.mark.parametrize("s", [COMPLEX, BOOLEAN, NONNEG, corrupted_complex()],
                         ids=lambda s: s.name)
def test_dagger_factors_bit_for_bit_through_the_dual_constructors(s):
    # f(dagger) = (f*)_* = (f_*)*, with the same ends and the same bits
    for f in _operands(s):
        want = dagger(f)
        for got in (lower_star(star(f)), star(lower_star(f))):
            assert got.dom == want.dom and got.cod == want.cod, f
            assert got.array.dtype == want.array.dtype, f
            assert np.array_equal(got.array, want.array), f


def test_checked_constructor_still_normalizes_copies_and_freezes():
    raw = np.array([[1.0, 2.0]])
    f = Morphism(Dual(A), Dual(UNIT), raw, COMPLEX)
    assert f.dom == Gen("A", 2, True) and f.cod == UNIT
    assert f.array.dtype == np.complex128 and not f.array.flags.writeable
    raw[0, 0] = 7.0
    assert f.array[0, 0] == 1.0
    with pytest.raises(TypeMismatch):
        Morphism(A, B, np.zeros((2, 2)), COMPLEX)


def test_trusted_path_coerces_and_shape_checks_user_kernels():
    # a user kernel that returns the wrong dtype is coerced to the semiring's
    sloppy = dataclasses.replace(COMPLEX, name="sloppy",
                                 matmul=lambda x, y: (x @ y).real)
    f = Morphism(A, A, np.eye(2), sloppy)
    assert compose(f, f).array.dtype == np.complex128
    # one that returns the wrong shape is refused
    broken = dataclasses.replace(COMPLEX, name="broken",
                                 kron=lambda x, y: np.zeros((1, 1), complex))
    g = Morphism(A, A, np.eye(2), broken)
    with pytest.raises(TypeMismatch):
        tensor(g, g)
