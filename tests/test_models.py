"""Concrete models: samplers, semiring law checks, unitaries, selectors."""

import dataclasses

import numpy as np
import pytest

from sccckit import (
    BOOLEAN,
    COMPLEX,
    NONNEG,
    Gen,
    Morphism,
    Oplus,
    RootUnavailable,
    SemiringLawViolation,
    TypeMismatch,
    UNIT,
    WProjModel,
    compose,
    dim,
    fdhilb,
    hs_inner,
    random_unitary,
    rel_model,
    resolve_model,
    run_suite,
    scalar_value,
    semiring_model,
    weight_model,
)
from sccckit import born
from sccckit.semirings import check_semiring_laws, corrupted_complex

from fractions import Fraction


@pytest.mark.parametrize("s", [COMPLEX, BOOLEAN, NONNEG])
def test_builtin_semirings_pass_law_check(s):
    check_semiring_laws(s, np.random.default_rng(0))


def test_corrupted_involution_breaks_dagger_coherence():
    # the scalar laws survive an identity involution, so the law check alone
    # stays quiet; the model axioms do not
    s = corrupted_complex()
    check_semiring_laws(s, np.random.default_rng(0))
    m = semiring_model(s)
    f = Morphism(UNIT, UNIT, np.array([[1j]]), s)
    assert complex(scalar_value(hs_inner(f, f))).real < 0  # a negative "norm"
    report = run_suite("sccc", m, trials=10, seed=0, max_dim=2)
    assert not report.ok


def test_law_check_rejects_a_broken_addition():
    s = dataclasses.replace(corrupted_complex(), name="complex-broken-add",
                            add=lambda x, y: x + y + 1)
    with pytest.raises(SemiringLawViolation):
        check_semiring_laws(s, np.random.default_rng(0))


@pytest.mark.parametrize("dims", [[2], [2, 3], [1, 1, 2], [4]])
def test_random_unitary_is_unitary_by_raw_numpy(dims):
    u = random_unitary(fdhilb(), dims, seed=5)
    arr = u.array
    n = sum(dims)
    assert arr.shape == (n, n)
    assert np.allclose(arr.conj().T @ arr, np.eye(n), atol=1e-9)
    assert np.allclose(arr @ arr.conj().T, np.eye(n), atol=1e-9)


def test_random_unitary_block_codomain():
    u = random_unitary(fdhilb(), [1, 2], seed=0)
    assert dim(u.cod) == 3 and isinstance(u.cod, Oplus)


def test_random_unitary_needs_complex():
    with pytest.raises(TypeMismatch):
        random_unitary(rel_model(), [2], seed=0)


@pytest.mark.parametrize("fill", [np.zeros, np.ones], ids=["zero", "rank-one"])
def test_random_unitary_of_a_degenerate_sample_is_unitary(fill):
    # a phase-bearing copy of COMPLEX whose every sample is degenerate
    m = semiring_model(dataclasses.replace(
        COMPLEX, name=f"complex-{fill.__name__}",
        sample=lambda rng, shape: fill(shape, dtype=complex)))
    for dims in ([1], [2], [1, 2], [2, 2]):
        arr = random_unitary(m, dims, seed=0).array
        n = sum(dims)
        assert np.allclose(arr.conj().T @ arr, np.eye(n), atol=1e-12)


def test_random_unitary_draws_one_sample_from_its_generator():
    # the rows that read a unitary share its generator with their other
    # draws, so the stream order rests on exactly one (n, n) sample
    for dims in ([1], [1, 2], [2, 2]):
        rng, twin = np.random.default_rng(31), np.random.default_rng(31)
        random_unitary(fdhilb(), dims, rng)
        n = sum(dims)
        COMPLEX.sample(twin, (n, n))
        assert rng.standard_normal(5).tobytes() == twin.standard_normal(5).tobytes()


def test_boolean_composition_is_relational():
    # (g o f)[k,i] = OR_j g[k,j] and f[j,i], checked by explicit loops
    rng = np.random.default_rng(21)
    m = rel_model()
    a, b, c = Gen("A", 3), Gen("B", 4), Gen("C", 2)
    f = m.sample_morphism(rng, a, b)
    g = m.sample_morphism(rng, b, c)
    got = compose(g, f).array
    for k in range(2):
        for i in range(3):
            want = any(g.array[k, j] and f.array[j, i] for j in range(4))
            assert bool(got[k, i]) == want
    assert got.dtype == np.bool_


def test_weight_composition_is_plain_matmul():
    rng = np.random.default_rng(22)
    m = weight_model()
    a, b = Gen("A", 3), Gen("B", 2)
    f = m.sample_morphism(rng, a, b)
    g = m.sample_morphism(rng, b, a)
    assert np.allclose(compose(g, f).array, g.array @ f.array)


def test_sampling_is_seed_deterministic():
    m = fdhilb()
    a = Gen("A", 3)
    f1 = m.sample_morphism(np.random.default_rng(7), a, a)
    f2 = m.sample_morphism(np.random.default_rng(7), a, a)
    f3 = m.sample_morphism(np.random.default_rng(8), a, a)
    assert np.array_equal(f1.array, f2.array)
    assert not np.array_equal(f1.array, f3.array)


def test_resolve_model_selectors():
    assert resolve_model("fdhilb").name == "fdhilb"
    assert resolve_model("rel").name == "rel"
    assert resolve_model("weights").name == "weights"
    w = resolve_model("wproj:fdhilb")
    assert isinstance(w, WProjModel)
    assert w.base.name == "fdhilb"
    with pytest.raises(ValueError):
        resolve_model("hilb")
    with pytest.raises(ValueError):
        resolve_model("wproj:nope")


def test_scalar_power_integer_is_exact():
    m = fdhilb()
    assert m.scalar_value(m.scalar_power(m.scalar(2.0 + 0j), Fraction(3))) == 8.0


def test_scalar_power_root():
    m = fdhilb()
    got = m.scalar_value(m.scalar_power(m.scalar(4.0 + 0j), Fraction(1, 2)))
    assert got == pytest.approx(2.0)
    with pytest.raises(RootUnavailable):
        m.scalar_power(m.scalar(-4.0 + 0j), Fraction(1, 2))


def test_large_real_scalars_are_rooted_and_non_real_ones_refused():
    # Tr(f(dagger) f) of a 3x3 sample scaled by 1e4 is about 1e9, and its
    # imaginary rounding residual, near 1e-8, is far above 1e-9 yet far
    # below the value: every draw has a square root
    m = fdhilb()
    rng = np.random.default_rng(61)
    a, b = Gen("A", 3), Gen("B", 3)
    for _ in range(200):
        f = m.sample_morphism(rng, a, b)
        big = Morphism(a, b, f.array * 1e4, COMPLEX)
        got = m.scalar_value(born.valuation_norm(m, big, Fraction(1, 2)))
        assert got == pytest.approx(np.linalg.norm(big.array))
    w = resolve_model("wproj:fdhilb")
    assert w.scalar_value(w.scalar(1e10 + 1e-8j)) == pytest.approx(1e10)
    # an infinite imaginary part is no rounding residual, at any magnitude
    for bad in (1 + 1j, -4, complex(1, np.inf)):
        with pytest.raises(RootUnavailable):
            m.scalar_power(m.scalar(bad), Fraction(1, 2))
        with pytest.raises(TypeMismatch, match="nonnegative"):
            w.scalar(bad)


def test_boolean_scalar_power_is_idempotent():
    m = rel_model()
    one = m.scalar(True)
    assert m.scalar_value(m.scalar_power(one, Fraction(1, 2))) == 1


@pytest.mark.parametrize("make", [fdhilb, rel_model, weight_model])
def test_model_axiom_smoke(make):
    report = run_suite("sccc", make(), trials=5, seed=0, max_dim=2)
    assert report.ok
