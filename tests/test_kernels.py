"""The matrix kernels, tolerant equality and the trusted constructor of derived morphisms.

``np.kron`` is kept here as the reference the shipped kernel must reproduce
bit for bit, an integer product as the reference for boolean composition,
``re + 1j * im`` as the reference for the complex sampler, ``ndarray.max``
as the reference for ``max_abs``, and the three-reduction formula as the
reference for tolerant equality.  The
results of compose, tensor, dagger, star, lower_star, direct_sum and scalar
must be exactly what the checked ``Morphism(...)`` constructor would have
built.  A ``Morphism`` refuses field assignment, and its copies, deep copies,
pickles and ``dataclasses.replace`` results are checked constructions too.
"""

import copy
import dataclasses
import pickle
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
    ModelHandle,
    Morphism,
    Tensor,
    TypeMismatch,
    UNIT,
    compose,
    dagger,
    dim,
    direct_sum,
    equal,
    fdhilb,
    lower_star,
    normalize,
    scalar,
    star,
    tensor,
)
from sccckit.semirings import (ABS_TOL, REL_TOL, _complex_normal, _tolerant_equal,
                               corrupted_complex, max_abs)

SHAPES = [(0, 3), (3, 0), (0, 0), (1, 4), (4, 1), (1, 1), (2, 3), (8, 8)]


def _reference_kron(s, a, b):
    if s is BOOLEAN:
        return np.kron(a.astype(np.uint8), b.astype(np.uint8)) > 0
    return np.kron(a, b)


def _layouts(a):
    """a as a C-ordered, an F-ordered and a strided (non-contiguous) array,
    and transposed, as dagger hands it over."""
    strided = np.repeat(a, 2, axis=1)[:, ::2]
    return [a, np.asfortranarray(a), strided, a.T]


@pytest.mark.parametrize("s", [COMPLEX, NONNEG, BOOLEAN], ids=lambda s: s.name)
def test_kron_matches_numpy_reference(s):
    # byte for byte in every memory layout
    rng = np.random.default_rng(5)
    for sa, sb in product(SHAPES, repeat=2):
        a = np.asarray(s.sample(rng, sa), dtype=s.dtype)
        b = np.asarray(s.sample(rng, sb), dtype=s.dtype)
        for x, y in product(_layouts(a), _layouts(b)):
            got, want = s.kron(x, y), _reference_kron(s, x, y)
            assert got.dtype == want.dtype and got.shape == want.shape, (sa, sb)
            assert got.tobytes() == want.tobytes(), (sa, sb)


@pytest.mark.parametrize("n", [255, 256, 512])
def test_boolean_compose_does_not_wrap_past_255_paths(n):
    # n paths through A: a relation counted in a uint8 would read 0 at 256
    a = Gen("A", n)
    row = Morphism(a, UNIT, np.ones((1, n), dtype=bool), BOOLEAN)
    col = Morphism(UNIT, a, np.ones((n, 1), dtype=bool), BOOLEAN)
    assert compose(row, col).array.tolist() == [[True]]


def test_boolean_matmul_matches_integer_reference():
    rng = np.random.default_rng(11)
    for m, k, n in [(0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1), (6, 6, 6), (36, 36, 36)]:
        for density in (0.1, 0.5, 0.9):
            a, b = rng.random((m, k)) < density, rng.random((k, n)) < density
            want = (a.astype(np.int64) @ b.astype(np.int64)) > 0
            for x, y in ((a, b), (np.ascontiguousarray(a.T).T, b)):
                got = BOOLEAN.matmul(x, y)
                assert got.dtype == np.bool_, (m, k, n)
                assert np.array_equal(got, want), (m, k, n, density)


def _reference_complex_normal(rng, shape):
    re, im = rng.standard_normal((2, *shape))
    return re + 1j * im


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (9, 1), (0, 3), (64, 64)])
def test_complex_sampler_matches_the_sum_reference_bit_for_bit(shape):
    assert COMPLEX.sample is _complex_normal
    for seed in range(200):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = _complex_normal(rng, shape), _reference_complex_normal(ref_rng, shape)
        assert got.dtype == want.dtype == np.complex128 and got.shape == want.shape
        assert got.view(np.float64).tobytes() == want.view(np.float64).tobytes(), seed
        # the generator ends where the reference leaves it
        assert rng.random() == ref_rng.random(), seed


_INF, _NAN = float("inf"), float("nan")


def _reference_max_abs(a):
    return 0.0 if a.size == 0 else float(np.abs(a).max())


def test_max_abs_matches_the_max_reference():
    rng = np.random.default_rng(13)
    finite = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    cases = [finite, np.zeros((0, 3), complex), np.zeros((3, 0), complex)]
    for at, bad in product([(0, 0), (2, 3), (3, 4)],
                           [_NAN, _INF, -_INF, complex(0, _NAN), complex(0, _INF),
                            complex(0, -_INF)]):
        a = finite.copy()
        a[at] = bad
        cases.append(a)
    both = finite.copy()
    both[0, 1], both[2, 2] = _INF, _NAN
    cases.append(both)
    with np.errstate(invalid="ignore"):
        for a in cases + [a.real.copy() for a in cases]:
            got, want = max_abs(a), _reference_max_abs(a)
            assert type(got) is float
            assert got == want or (np.isnan(got) and np.isnan(want)), a
            if np.isnan(np.abs(a)).any():
                # a NaN propagates, so a NaN gap never reads as within tolerance
                assert np.isnan(got), a
                assert not _tolerant_equal(a, a), a


def _three_reduction_equal(a, b, rel=None):
    """The tolerant equality as first written: scale, then threshold, then
    gap, with an infinite gap deciding False."""
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    scale = max(max_abs(a), max_abs(b))
    gap = max_abs(a - b)
    if gap == np.inf:
        return False
    return gap <= max(ABS_TOL, (REL_TOL if rel is None else rel) * scale)


EQUALITY_TABLE = [
    ([0.0], [ABS_TOL]),                      # gap == ABS_TOL
    ([0.0], [np.nextafter(ABS_TOL, 1.0)]),   # just above it
    ([1.0], [1.0 + 1e-9]), ([1.0], [1.0 + 2e-9]), ([1.0], [1.0 + 2e-3]),
    ([1e300, -1e300], [1e300, -1e300 * (1 + 1e-10)]),   # huge scales
    ([1e300], [-1e300]),                                 # a gap that overflows
    ([1e-300], [2e-300]), ([1e-20, 0.0], [0.0, 3e-20]),  # tiny scales
    ([_NAN], [_NAN]), ([_NAN], [1.0]), ([1.0, 2.0], [1.0, _NAN]),
    ([_INF], [_INF]), ([_INF], [-_INF]), ([_INF], [1.0]), ([1.0], [-_INF]),
    ([1 + 1j, 0j], [1 + 1j, 1e-13j]), ([1j * _INF], [1j]),
    # finite entries whose modulus overflows: a finite gap, then one that is not
    ([1.5e308 + 1.5e308j], [1.5e308 + 1e297 + 1.5e308j]),
    ([1e308 + 1e308j], [-1e308 - 1e308j]),
    (np.zeros((0, 3)), np.zeros((0, 3))), (np.zeros((0, 3)), np.zeros((3, 0))),
    ([[1.0, 2.0]], [[1.0], [2.0]]),
]


def test_one_reduction_equality_agrees_with_three_reductions():
    verdicts = set()
    with np.errstate(invalid="ignore", over="ignore"):
        for x, y in EQUALITY_TABLE:
            a, b = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
            for rel in (None, 0.0, -1.0, 1e-3):
                for p, q in ((a, b), (b, a), (a.real, b.real)):
                    want = _three_reduction_equal(p, q, rel)
                    assert _tolerant_equal(p, q, rel) is want, (p, q, rel)
                    verdicts.add(want)
    assert verdicts == {True, False}


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
    # the same checks hold for a sampled arrow: a float sample becomes complex
    rng = np.random.default_rng(4)
    real_sample = dataclasses.replace(COMPLEX, name="real-sample",
                                      sample=lambda rng, shape: rng.random(shape))
    h = ModelHandle("real-sample", real_sample).sample_morphism(rng, A, B)
    assert h.array.dtype == np.complex128 and h.array.shape == (3, 2)
    # a sample of the wrong shape is refused
    misshapen = dataclasses.replace(COMPLEX, name="misshapen",
                                    sample=lambda rng, shape: np.zeros((1, 1), complex))
    with pytest.raises(TypeMismatch):
        ModelHandle("misshapen", misshapen).sample_morphism(rng, A, B)
    # unnormalized ends come back normalized, and the array frozen
    k = fdhilb().sample_morphism(rng, Dual(Tensor(A, B)), Dual(Dual(B)))
    assert k.dom is normalize(Dual(Tensor(A, B))) and k.dom != Dual(Tensor(A, B))
    assert k.cod is B
    assert k.array.shape == (3, 6) and not k.array.flags.writeable


SHIPPED = [COMPLEX, BOOLEAN, NONNEG]


@pytest.mark.parametrize("s", SHIPPED + [corrupted_complex()], ids=lambda s: s.name)
def test_no_morphism_field_can_be_assigned(s):
    for f in _derived_results(s) + list(_operands(s)):
        assert not hasattr(f, "__dict__")
        for field in dataclasses.fields(Morphism):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(f, field.name, getattr(f, field.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(f, field.name)


def _assert_same_arrow(got, want):
    assert got is not want
    assert got.dom is want.dom and got.cod is want.cod
    assert got.semiring is want.semiring
    assert got.array.dtype == want.array.dtype
    assert got.array.shape == want.array.shape
    assert got.array.tobytes() == want.array.tobytes()
    assert not got.array.flags.writeable


@pytest.mark.parametrize("s", SHIPPED + [corrupted_complex()], ids=lambda s: s.name)
def test_copies_keep_ends_bytes_and_frozen_array(s):
    copies = [copy.copy, copy.deepcopy]
    if s in SHIPPED:  # a semiring built at run time has no name to pickle by
        copies.append(lambda f: pickle.loads(pickle.dumps(f)))
    for f in _derived_results(s) + list(_operands(s)):
        for make in copies:
            _assert_same_arrow(make(f), f)


def test_replace_normalizes_the_ends_and_checks_the_shape():
    f = Morphism(A, B, np.ones((3, 2)), COMPLEX)
    g = dataclasses.replace(f, dom=Dual(Dual(A)), cod=Dual(Dual(B)))
    assert g.dom is A and g.cod is B
    assert not g.array.flags.writeable
    h = dataclasses.replace(f, dom=Dual(A), array=np.full((3, 2), 2.0))
    assert h.dom is Gen("A", 2, True) and h.array.dtype == np.complex128
    with pytest.raises(TypeMismatch):
        dataclasses.replace(f, array=np.zeros((2, 3)))
    with pytest.raises(TypeMismatch):
        dataclasses.replace(f, cod=A)
