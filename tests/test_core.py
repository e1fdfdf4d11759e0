"""Compact-structure core: units, names, traces, Born loop.

The numeric oracles here were computed by hand from small matrices and are
frozen; they must not be regenerated from the code under test.
"""

import re

import numpy as np
import pytest

from sccckit import (
    COMPLEX,
    Gen,
    Morphism,
    Oplus,
    Tensor,
    UNIT,
    ZERO,
    WProjModel,
    born_prob,
    compose,
    dagger,
    dim,
    double,
    dual,
    equal,
    fdhilb,
    hs_inner,
    hs_norm_sq,
    identity,
    lower_star,
    name,
    partial_trace,
    phase_witnesses,
    scalar,
    scalar_mult,
    scalar_value,
    star,
    tensor,
    trace,
    unit,
    yanking_composite,
    zeros,
)
from sccckit import core
from sccckit.errors import (AbsorptionMismatch, NotPhaseEquivalent, NotProjector,
                            NumericRange, TypeMismatch)
from sccckit.models import semiring_model
from sccckit.semirings import (BOOLEAN, NONNEG, InvolutiveSemiring, corrupted_complex,
                                real_value)
from sccckit.wproj import lift, wequal

Q = Gen("Q", 2)
M = fdhilb()


def _unit_state(rng, a):
    """A sampled state of a scaled to norm one."""
    psi = M.sample_morphism(rng, UNIT, a)
    return Morphism(UNIT, a, psi.array / np.linalg.norm(psi.array), COMPLEX)


def mor(arr, dom, cod):
    return Morphism(dom, cod, np.asarray(arr, dtype=complex), COMPLEX)


def test_basis_flip_oracle():
    # X e0 = e1
    x = mor([[0, 1], [1, 0]], Q, Q)
    e0 = mor([[1], [0]], UNIT, Q)
    e1 = mor([[0], [1]], UNIT, Q)
    assert equal(compose(x, e0), e1)


def test_unit_and_name_of_identity_oracle():
    # eta_Q = vec(1_Q) = (1,0,0,1)^T, columns stacked
    e = unit(Q, COMPLEX)
    assert e.dom == UNIT and dim(e.cod) == 4
    assert np.array_equal(e.array, np.array([[1], [0], [0], [1]], dtype=complex))
    assert np.array_equal(name(identity(Q, COMPLEX)).array, e.array)


def test_name_column_stacking_oracle():
    # name([[1,2],[3,4]]) = (1,3,2,4)^T
    f = mor([[1, 2], [3, 4]], Q, Q)
    assert np.array_equal(name(f).array[:, 0], np.array([1, 3, 2, 4], dtype=complex))


def test_hs_norm_oracle():
    # |1|^2+|2|^2+|3|^2+|4|^2 = 30
    f = mor([[1, 2], [3, 4]], Q, Q)
    assert scalar_value(hs_norm_sq(f)) == pytest.approx(30)


@pytest.mark.parametrize("s", [COMPLEX, BOOLEAN, NONNEG, corrupted_complex()],
                         ids=lambda s: s.name)
def test_hs_norm_sq_is_hs_inner_with_itself(s):
    # hs_norm_sq names f once; the result is exactly the two-name inner product
    rng = np.random.default_rng(23)
    for dom, cod in ((Q, Q), (UNIT, Q), (Q, Gen("B", 3)), (Tensor(Q, Q), UNIT)):
        f = Morphism(dom, cod, s.sample(rng, (dim(cod), dim(dom))), s)
        got, want = hs_norm_sq(f), hs_inner(f, f)
        assert got.dom == want.dom == UNIT and got.cod == want.cod == UNIT
        assert np.array_equal(got.array, want.array), (s.name, dom, cod)


def test_name_still_compares_its_unfoldings(monkeypatch):
    # a transpose that also conjugates spoils the absorption unfolding on
    # any non-real f, and name must notice on every call
    def conjugating_star(f):
        return Morphism(dual(f.cod), dual(f.dom), f.array.T.conj(), f.semiring)

    f = mor([[1, 2j], [3, 4]], Q, Q)
    name(f)
    monkeypatch.setattr(core, "star", conjugating_star)
    with pytest.raises(AbsorptionMismatch):
        name(f)
    with pytest.raises(AbsorptionMismatch):
        hs_norm_sq(f)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_a_non_finite_arrow_is_a_range_problem_not_a_broken_name(bad):
    # its unfoldings disagree because an entry is outside the float range,
    # not because name is broken; the refusal names the first such entry
    f = mor([[1, 2j], [bad, 4]], Q, Q)
    g = mor([[1, 2j], [3, 4]], Q, Q)
    where = rf"non-finite entry {re.escape(str(f.array[1, 0]))} at row-major index 2"
    for call in (lambda: name(f), lambda: wequal(f, g), lambda: wequal(g, f)):
        with pytest.raises(NumericRange, match=where):
            call()


def test_hs_inner_equals_trace_route():
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = M.sample_morphism(rng, Q, Q)
        g = M.sample_morphism(rng, Q, Q)
        lhs = scalar_value(hs_inner(f, g))
        rhs = scalar_value(trace(compose(dagger(f), g)))
        assert lhs == pytest.approx(rhs, rel=1e-9)
        # and against raw numpy
        assert lhs == pytest.approx(complex(np.trace(f.array.conj().T @ g.array)))


def test_hs_inner_on_states_is_composition():
    rng = np.random.default_rng(12)
    a = Tensor(Q, Gen("B", 3))
    psi = M.sample_morphism(rng, UNIT, a)
    phi = M.sample_morphism(rng, UNIT, a)
    assert equal(hs_inner(psi, phi), compose(dagger(psi), phi))


def test_born_loop_oracle():
    # psi = (1,1)/sqrt(2), P = |0><0|  ->  probability 1/2
    psi = mor([[1], [1]], UNIT, Q)
    psi = scalar_mult(scalar(1 / np.sqrt(2), COMPLEX), psi)
    p = mor([[1, 0], [0, 0]], Q, Q)
    assert scalar_value(born_prob(psi, p)) == pytest.approx(0.5)


def test_born_loop_equals_density_trace():
    rng = np.random.default_rng(13)
    for _ in range(20):
        psi = _unit_state(rng, Q)
        v = _unit_state(rng, Q)
        p = compose(v, dagger(v))  # rank-one projector
        rho = compose(psi, dagger(psi))
        got = float(scalar_value(born_prob(psi, p)).real)
        want = scalar_value(trace(compose(p, rho)))
        assert got == pytest.approx(want.real, abs=1e-9)
        assert abs(want.imag) <= 1e-9


def test_born_prob_rejects_non_projector():
    psi = mor([[1], [0]], UNIT, Q)
    with pytest.raises(NotProjector):
        born_prob(psi, mor([[1, 1], [0, 1]], Q, Q))


def test_partial_trace_index_sum_oracle():
    # Tr_A(f)[j,k] = sum_i f[i*dB+j, i*dB+k], checked by an explicit loop
    rng = np.random.default_rng(14)
    a, b = Gen("A", 2), Gen("B", 3)
    f = M.sample_morphism(rng, Tensor(a, b), Tensor(a, b))
    got = partial_trace(f, a)
    want = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        for k in range(3):
            for i in range(2):
                want[j, k] += f.array[i * 3 + j, i * 3 + k]
    assert got.dom == b and got.cod == b
    assert np.allclose(got.array, want)


def test_partial_trace_of_identity_factor():
    rng = np.random.default_rng(15)
    a, b = Gen("A", 3), Gen("B", 2)
    g = M.sample_morphism(rng, b, b)
    lhs = partial_trace(tensor(identity(a, COMPLEX), g), a)
    assert np.allclose(lhs.array, 3 * g.array)


@pytest.mark.parametrize("obj", [
    UNIT,
    Q,
    Gen("A", 3),
    dual(Q),
    Tensor(Q, Gen("A", 3)),
    Oplus(Q, UNIT),
])
def test_yanking(obj):
    assert equal(yanking_composite(obj, COMPLEX), identity(obj, COMPLEX))


def test_swap_on_product_states():
    rng = np.random.default_rng(16)
    a, b = Gen("A", 2), Gen("B", 3)
    x = M.sample_morphism(rng, UNIT, a)
    y = M.sample_morphism(rng, UNIT, b)
    s = core.sigma(a, b, COMPLEX)
    assert equal(compose(s, tensor(x, y)), tensor(y, x))


def test_structural_isos_are_permutation_free_here():
    # strict model: associator and unitors are identity matrices
    a, b, c = Gen("A", 2), Gen("B", 3), Gen("C", 2)
    assert np.array_equal(core.alpha(a, b, c, COMPLEX).array, np.eye(12))
    assert np.array_equal(core.lam(a, COMPLEX).array, np.eye(2))
    assert np.array_equal(core.rho(a, COMPLEX).array, np.eye(2))


def test_dagger_factors_through_stars():
    rng = np.random.default_rng(17)
    a, b = Gen("A", 2), Gen("B", 3)
    f = M.sample_morphism(rng, a, b)
    # f(dagger) = (f_*)^* = (f^*)_*
    assert equal(dagger(f), star(lower_star(f)))
    assert equal(dagger(f), lower_star(star(f)))
    assert star(f).dom == dual(b) and star(f).cod == dual(a)
    assert lower_star(f).dom == dual(a) and lower_star(f).cod == dual(b)


def test_double_is_phase_blind():
    f = mor([[1, 2], [3, 4]], Q, Q)
    g = scalar_mult(scalar(np.exp(0.7j), COMPLEX), f)
    assert equal(double(f), double(g))
    assert np.allclose(double(f).array, np.kron(f.array, f.array.conj().T))
    two_f = scalar_mult(scalar(2, COMPLEX), f)
    assert not equal(double(f), double(two_f))


def test_phase_witness_oracle():
    # f = [[1,2],[3,4]], g = i.f  ->  s = 30, t = -30i
    f = mor([[1, 2], [3, 4]], Q, Q)
    g = scalar_mult(scalar(1j, COMPLEX), f)
    s, t = phase_witnesses(f, g)
    assert scalar_value(s) == pytest.approx(30)
    assert scalar_value(t) == pytest.approx(-30j)
    # s.f = t.g and the witnesses carry equal weight
    assert equal(scalar_mult(s, f), scalar_mult(t, g))
    assert equal(compose(s, dagger(s)), compose(t, dagger(t)))


def test_phase_witnesses_refuse_inequivalent_pair():
    # 1_A and 2.1_A differ by a weight, not a phase: their doubles differ
    one = identity(Q, COMPLEX)
    with pytest.raises(NotPhaseEquivalent):
        phase_witnesses(one, scalar_mult(scalar(2, COMPLEX), one))


def test_trace_counts_dimension():
    for d in range(1, 6):
        a = Gen("A", d)
        assert scalar_value(trace(identity(a, COMPLEX))) == pytest.approx(d)


def test_trace_rejects_non_endomorphism():
    f = zeros(Q, Gen("B", 3), COMPLEX)
    with pytest.raises(TypeMismatch):
        trace(f)


def composite_trace(f):
    """Tr(f) as the composite eta(dagger) o (1 (x) f) o eta that ``trace``
    reads in closed form: the oracle for its bits."""
    s = f.semiring
    return compose(core.counit(f.dom, s),
                   compose(tensor(identity(dual(f.dom), s), f), unit(f.dom, s)))


TRACE_OBJECTS = ([Gen("A", d) for d in range(1, 9)]
                 + [UNIT, ZERO, Oplus(Gen("A", 2), Gen("B", 3)),
                    Oplus(UNIT, dual(Gen("C", 2))), Oplus(ZERO, Tensor(Q, Q))])


def _endomorphisms(s, rng):
    """Sampled endomorphisms of every trace object, at the scales 1 and
    1e300 with signed zeros off the booleans."""
    for a in TRACE_OBJECTS:
        for _ in range(4):
            arr = s.sample(rng, (dim(a), dim(a)))
            if s is BOOLEAN or not arr.size:
                yield Morphism(a, a, arr, s)
                continue
            for scale in (1.0, 1e300):
                scaled = scale * arr
                scaled.flat[rng.integers(0, arr.size, 2)] = -0.0
                if s is COMPLEX:
                    scaled.flat[-1] = complex(0.0, -0.0)
                yield Morphism(a, a, scaled, s)


@pytest.mark.parametrize("s", [COMPLEX, NONNEG, BOOLEAN], ids=lambda s: s.name)
def test_trace_is_the_composite_bit_for_bit(s):
    for f in _endomorphisms(s, np.random.default_rng(31)):
        got, want = trace(f), composite_trace(f)
        assert got.dom == got.cod == want.dom == want.cod == UNIT
        assert got.array.dtype == want.array.dtype
        assert got.array.tobytes() == want.array.tobytes(), f.array


@pytest.mark.parametrize("s", [COMPLEX, NONNEG], ids=lambda s: s.name)
def test_trace_of_a_non_finite_arrow_is_not_finite(s):
    a = Gen("A", 3)
    with np.errstate(invalid="ignore"):
        for bad in (np.inf, -np.inf, np.nan):
            for k in range(9):
                arr = np.ones((3, 3))
                arr.flat[k] = bad
                f = Morphism(a, a, arr, s)
                assert not np.isfinite(trace(f).array).any(), (bad, k)
                assert not np.isfinite(composite_trace(f).array).any(), (bad, k)
        if s is NONNEG:
            # where the non-finite entries sit only on the diagonal, the
            # composite's 0 * inf terms made NaN of a sum that is inf
            f = Morphism(a, a, np.diag([np.inf, 1.0, np.inf]), s)
            assert trace(f).array.item() == np.inf
            assert np.isnan(composite_trace(f).array.item())


def _scalars(s, rng):
    """Scalars from 1e-200 to 1e200 in modulus, where c c(dagger) overflows
    and underflows, with signed zeros and non-finite parts."""
    if s is BOOLEAN:
        yield from (scalar(v, s) for v in (False, True))
        return
    specials = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, 1.4e154]
    values = [complex(x, y) for x in specials for y in specials]
    for e in range(-200, 201, 5):
        values += list(rng.standard_normal(4) * 10.0 ** e
                       + 1j * rng.standard_normal(4) * 10.0 ** e)
    for v in values:
        yield scalar(v if s is COMPLEX else v.real, s)


@pytest.mark.parametrize("s", [COMPLEX, NONNEG, BOOLEAN], ids=lambda s: s.name)
def test_quotient_scalar_value_is_the_lifted_entry_bit_for_bit(s):
    model = WProjModel(semiring_model(s))
    with np.errstate(over="ignore", invalid="ignore"):
        for c in _scalars(s, np.random.default_rng(37)):
            want = lift(c).item()
            if isinstance(want, complex):
                want = real_value(want)
            if want is None:
                with pytest.raises(TypeMismatch):
                    model.scalar_value(c)
                continue
            got = model.scalar_value(c)
            assert type(got) is type(want), c.array
            assert np.array(got).tobytes() == np.array(want).tobytes(), c.array


def test_quotient_scalar_value_is_the_semirings_product():
    # over (max, min) on [0, 1] the product c c(dagger) is min(c, c) = c, not
    # c * c: the quotient reads it with the semiring's product, as lift does
    fuzzy = InvolutiveSemiring(
        name="fuzzy", dtype=np.float64, zero=0.0, one=1.0, add=max, mul=min,
        involution=lambda x: x,
        matmul=lambda a, b: np.minimum(a[:, :, None], b[None]).max(axis=1, initial=0.0),
        kron=lambda a, b: np.minimum(a[:, None, :, None], b[None, :, None, :]).reshape(
            a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]),
        scale=np.minimum, sample=lambda rng, shape: rng.random(shape))
    model = WProjModel(semiring_model(fuzzy))
    for v in (0.0, 0.25, 0.5, 1.0):
        c = scalar(v, fuzzy)
        assert model.scalar_value(c) == lift(c).item() == v


def test_scalar_action_scales_entries():
    f = mor([[1, 2], [3, 4]], Q, Q)
    sf = scalar_mult(scalar(2j, COMPLEX), f)
    assert np.allclose(sf.array, 2j * f.array)
    assert scalar_value(scalar(2j, COMPLEX)) == 2j
