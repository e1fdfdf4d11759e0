"""Zero object, block sums, pseudo projections, and the derived sum."""

import numpy as np
from hypothesis import given
import hypothesis.strategies as st

from sccckit import (
    BOOLEAN,
    COMPLEX,
    Gen,
    MeasurementSpec,
    Morphism,
    Oplus,
    UNIT,
    ZERO,
    compose,
    copairing,
    dagger,
    decomposition,
    derived_sum,
    dim,
    direct_sum,
    dist_left,
    equal,
    fdhilb,
    identity,
    oplus_illdefined_witness,
    pairing,
    pseudo_component,
    pseudo_injection,
    pseudo_projection,
    random_unitary,
    rel_model,
    tensor,
    zeros,
)
from sccckit import protocols, suites

M = fdhilb()
A, B, C = Gen("A", 2), Gen("B", 3), Gen("C", 2)


def test_zero_morphisms_are_zero_matrices():
    for a, b in [(A, B), (UNIT, A), (A, ZERO), (ZERO, B)]:
        z = zeros(a, b, COMPLEX)
        assert z.array.shape == (dim(b), dim(a))
        assert np.count_nonzero(z.array) == 0


def test_zero_annihilates_composition():
    rng = np.random.default_rng(41)
    f = M.sample_morphism(rng, A, B)
    assert equal(compose(zeros(B, C, COMPLEX), f), zeros(A, C, COMPLEX))
    assert equal(compose(f, zeros(C, A, COMPLEX)), zeros(C, B, COMPLEX))


def test_pseudo_maps_block_oracle():
    # p_0 = [1 0 0 0 0; 0 1 0 0 0] on A (+) B: literally the first block row
    d = decomposition(A, B)
    p0 = pseudo_projection(d, 0, COMPLEX)
    q0 = pseudo_injection(d, 0, COMPLEX)
    want = np.hstack([np.eye(2), np.zeros((2, 3))])
    assert np.array_equal(p0.array, want)
    assert np.array_equal(q0.array, want.T)


def test_pseudo_maps_are_orthonormal():
    d = decomposition(A, B, C)
    for i in range(3):
        for j in range(3):
            p = pseudo_projection(d, i, COMPLEX)
            q = pseudo_injection(d, j, COMPLEX)
            pq = compose(p, q)
            if i == j:
                assert equal(pq, identity(d.parts[i], COMPLEX))
            else:
                assert np.count_nonzero(pq.array) == 0
            # q_i = p_i(dagger)
            assert equal(dagger(q), pseudo_projection(d, j, COMPLEX))


def test_pseudo_projection_naturality():
    # p o (f (+) g) = f o p
    rng = np.random.default_rng(42)
    f = M.sample_morphism(rng, A, A)
    g = M.sample_morphism(rng, B, B)
    d = decomposition(A, B)
    p0 = pseudo_projection(d, 0, COMPLEX)
    assert equal(compose(p0, direct_sum(f, g)), compose(f, p0))
    p1 = pseudo_projection(d, 1, COMPLEX)
    assert equal(compose(p1, direct_sum(f, g)), compose(g, p1))


def test_pseudo_projection_reassociates():
    # p_{A,B} o p_{A(+)B, C} = p_{A, B(+)C} composed with the associator
    left = decomposition(Oplus(A, B), C)
    inner = decomposition(A, B)
    right = decomposition(A, Oplus(B, C))
    lhs = compose(pseudo_projection(inner, 0, COMPLEX),
                  pseudo_projection(left, 0, COMPLEX))
    rhs = pseudo_projection(right, 0, COMPLEX)
    # strict model: both are the same 2x7 block row
    assert np.array_equal(lhs.array, rhs.array)


def test_direct_sum_is_block_diagonal():
    rng = np.random.default_rng(43)
    f = M.sample_morphism(rng, A, B)
    g = M.sample_morphism(rng, C, A)
    got = direct_sum(f, g).array
    want = np.block([
        [f.array, np.zeros((3, 2))],
        [np.zeros((2, 2)), g.array],
    ])
    assert np.allclose(got, want)


def test_direct_sum_commutes_with_dagger():
    rng = np.random.default_rng(44)
    f = M.sample_morphism(rng, A, B)
    g = M.sample_morphism(rng, C, A)
    assert equal(dagger(direct_sum(f, g)), direct_sum(dagger(f), dagger(g)))


def test_derived_sum_is_entrywise_addition():
    rng = np.random.default_rng(45)
    for _ in range(50):
        f = M.sample_morphism(rng, A, B)
        g = M.sample_morphism(rng, A, B)
        assert np.allclose(derived_sum(f, g).array, f.array + g.array, atol=1e-9)


def test_derived_sum_over_booleans_is_union():
    # exhaustive on 2x2 relations: the diagram computes entrywise OR
    m = rel_model()
    rels = [np.array([[a, b], [c, d]], dtype=np.bool_)
            for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)]
    for fa in rels:
        for ga in rels:
            f = Morphism(A, A, fa, BOOLEAN)
            g = Morphism(A, A, ga, BOOLEAN)
            assert np.array_equal(derived_sum(f, g).array, fa | ga)


@given(st.integers(0, 2 ** 32 - 1))
def test_derived_sum_monoid_laws(seed):
    # f + g = g + f,  (f + g) + h = f + (g + h),  f + 0 = f
    rng = np.random.default_rng(seed)
    f = M.sample_morphism(rng, A, B)
    g = M.sample_morphism(rng, A, B)
    h = M.sample_morphism(rng, A, B)
    z = zeros(A, B, COMPLEX)
    assert equal(derived_sum(f, g), derived_sum(g, f))
    assert equal(derived_sum(derived_sum(f, g), h), derived_sum(f, derived_sum(g, h)))
    assert equal(derived_sum(f, z), f)


def test_blocks_reassemble_the_morphism():
    # f = sum_ij q_j o f_ij o p_i
    rng = np.random.default_rng(46)
    dd = decomposition(A, B)
    cd = decomposition(C, Gen("D", 3))
    f = M.sample_morphism(rng, dd.whole, cd.whole)
    total = zeros(dd.whole, cd.whole, COMPLEX)
    for i in range(2):
        for j in range(2):
            blk = pseudo_component(f, dd, cd, i, j)
            term = compose(pseudo_injection(cd, j, COMPLEX),
                           compose(blk, pseudo_projection(dd, i, COMPLEX)))
            total = derived_sum(total, term)
    assert equal(total, f)


def test_pairing_and_copairing_against_blocks():
    rng = np.random.default_rng(47)
    f = M.sample_morphism(rng, A, B)
    g = M.sample_morphism(rng, A, C)
    assert np.allclose(pairing([f, g]).array, np.vstack([f.array, g.array]))
    assert np.allclose(copairing([dagger(f), dagger(g)]).array,
                       np.hstack([f.array.conj().T, g.array.conj().T]))


def test_distributivity_iso_is_unitary_and_natural():
    d = dist_left(A, B, C, COMPLEX)
    assert equal(compose(dagger(d), d), identity(d.dom, COMPLEX))
    assert equal(compose(d, dagger(d)), identity(d.cod, COMPLEX))
    rng = np.random.default_rng(48)
    x = M.sample_morphism(rng, A, A)
    lhs = compose(d, tensor(x, identity(Oplus(B, C), COMPLEX)))
    rhs = compose(direct_sum(tensor(x, identity(B, COMPLEX)),
                             tensor(x, identity(C, COMPLEX))), d)
    assert equal(lhs, rhs)


def test_block_sum_breaks_on_phase_classes():
    # rotated pair: visible gap; aligned pair: no gap
    w = oplus_illdefined_witness(np.pi / 2)
    assert w["oplus_gap"] >= 0.5
    assert w["pairing_gap"] >= 0.5
    w0 = oplus_illdefined_witness(0.0)
    assert w0["oplus_gap"] <= 1e-9
    assert w0["pairing_gap"] <= 1e-9


def test_each_unitarity_check_takes_one_dagger_per_map(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return dagger(f)

    # additive-isos-unitary: u(dagger) o u and u o u(dagger) for six isos
    monkeypatch.setattr(suites, "dagger", counted)
    row = next(c for c in suites._ortho_checks(M, 1e-9, 3)
               if c.name == "additive-isos-unitary")
    assert row.fn(np.random.default_rng(5)) is None
    assert len(calls) == 6 and len({id(u) for u in calls}) == 6
    # MeasurementSpec.from_unitary: the same two composites for one u
    calls.clear()
    monkeypatch.setattr(protocols, "dagger", counted)
    u = random_unitary(M, [2, 2], seed=3)
    MeasurementSpec.from_unitary(u, decomposition(Gen("A0", 2), Gen("A1", 2)))
    assert calls == [u]
