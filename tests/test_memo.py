"""The memoized structure maps against fresh builds, and reports against cache history.

Each memoized constructor must hand out exactly what an uncached build
(``__wrapped__``) makes now: same normal-form ends, same dtype, the same
entries, and a frozen array.  A semiring is part of every key, by identity,
so a copy of a semiring with equal fields gets its own entries.  Reports at a
fixed seed must not depend on what ran before them in the process.
"""

import dataclasses
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

from sccckit import (BOOLEAN, COMPLEX, NONNEG, UNIT, ZERO, Dual, Gen, Morphism,
                     Oplus, Tensor, compose, core, dagger, derived_sum, dim,
                     direct_sum, dual, identity, ortho, partial_trace, protocols,
                     scalar, tensor)
from sccckit.cli import main
from sccckit.semirings import corrupted_complex

SEMIRINGS = [COMPLEX, BOOLEAN, NONNEG, corrupted_complex()]
Q = Gen("Q", 2)
OBJECTS = [UNIT, ZERO, Q, Dual(Gen("R", 3)),
           Oplus(Tensor(Q, UNIT), Dual(Q))]

ONE = [identity, core.lam, core.lam_inv, core.rho, core.unit, core.counit,
       ortho.l_unitor, ortho.r_unitor, ortho._spread, ortho._sum_down, ortho._sum_up]
TWO = [core.sigma, ortho.oplus_symmetry, ortho.zero_morphism,
       core._partial_trace_down, core._partial_trace_up]
THREE = [core.alpha, ortho.oplus_assoc, ortho.dist_left, ortho.dist_right]
DECOMPOSITIONS = [ortho.decomposition(Q),
                  ortho.decomposition(ZERO, Q),
                  ortho.decomposition(UNIT, Dual(Q), Tensor(Q, Q)),
                  ortho.decomposition(Q, ZERO, Oplus(UNIT, Q), UNIT)]


def calls():
    """Every (memoized constructor, arguments but the semiring) pair tested."""
    for fn in ONE:
        for a in OBJECTS:
            yield fn, (a,)
    for fn in TWO:
        for args in product(OBJECTS, repeat=2):
            yield fn, args
    for fn in THREE:
        for args in product(OBJECTS[:4], repeat=3):
            yield fn, args
    for a in (ZERO, Tensor(ZERO, Q), Oplus(ZERO, Dual(ZERO))):
        yield ortho.zero_collapse, (a,)
    for d in DECOMPOSITIONS:
        for i in range(len(d)):
            yield ortho._pseudo_projection, (d, i)
            yield ortho._pseudo_injection, (d, i)


def assert_same(got, want):
    assert got.dom == want.dom and got.cod == want.cod
    assert got.semiring is want.semiring
    assert got.array.dtype == want.array.dtype
    assert np.array_equal(got.array, want.array)
    assert not got.array.flags.writeable


@pytest.mark.parametrize("s", SEMIRINGS, ids=lambda s: s.name)
def test_memoized_results_equal_fresh_builds(s):
    for fn, args in calls():
        got = fn(*args, s)
        assert fn(*args, s) is got, fn.__name__
        assert_same(got, fn.__wrapped__(*args, s))
        assert got.array.dtype == s.dtype
        assert got.array.shape == (dim(got.cod), dim(got.dom))


@pytest.mark.parametrize("s", SEMIRINGS, ids=lambda s: s.name)
def test_public_pseudo_maps_hand_out_the_cached_builds(s):
    for d in DECOMPOSITIONS:
        for i in range(len(d)):
            assert ortho.pseudo_projection(d, i, s) is ortho._pseudo_projection(d, i, s)
            assert ortho.pseudo_injection(d, i, s) is ortho._pseudo_injection(d, i, s)


@pytest.mark.parametrize("s", SEMIRINGS, ids=lambda s: s.name)
def test_identity_matrices_share_one_frozen_array_per_dimension(s):
    r = Gen("R", 4)
    maps = [identity(Tensor(Q, Q), s), core.lam(r, s), core.rho(r, s),
            ortho.l_unitor(r, s), ortho.r_unitor(r, s), core.alpha(Q, UNIT, Q, s),
            ortho.oplus_assoc(Q, ZERO, Q, s)]
    assert all(m.array is maps[0].array for m in maps)
    assert not maps[0].array.flags.writeable


def test_semirings_never_share_an_entry():
    copy = dataclasses.replace(COMPLEX)
    rings = SEMIRINGS + [corrupted_complex(), copy]
    for fn, args in calls():
        built = [fn(*args, s) for s in rings]
        for s, f in zip(rings, built):
            assert f.semiring is s, fn.__name__
        assert len({id(f) for f in built}) == len(rings), fn.__name__
    # an entry built over the copy composes with the copy's own morphisms
    g = Morphism(Q, Q, np.eye(2), copy)
    assert np.array_equal(compose(identity(Q, copy), g).array, g.array)


# -- the per-call chains the memoized legs replace ----------------------------

def chain_derived_sum(f, g):
    """derived_sum as one composite applied leg by leg, every leg built per call."""
    s, a, b = f.semiring, f.dom, f.cod
    two = Oplus(UNIT, UNIT)
    eta2 = core.unit(two, s)
    down = compose(tensor(eta2, identity(a, s)), core.lam(a, s))
    down = compose(dagger(core.alpha(two, two, a, s)), down)
    down = compose(tensor(identity(two, s), ortho._spread(a, s)), down)
    mid = compose(tensor(identity(two, s), direct_sum(f, g)), down)
    up = compose(tensor(identity(two, s), dagger(ortho._spread(b, s))), mid)
    up = compose(core.alpha(two, two, b, s), up)
    up = compose(tensor(dagger(eta2), identity(b, s)), up)
    return compose(dagger(core.lam(b, s)), up)


def chain_partial_trace(f, a):
    """partial_trace as one composite applied leg by leg, every leg built per call."""
    s, b, c = f.semiring, f.dom.right, f.cod.right
    e = core.unit(a, s)
    down = compose(tensor(e, identity(b, s)), core.lam(b, s))
    down = compose(dagger(core.alpha(dual(a), a, b, s)), down)
    mid = compose(tensor(identity(dual(a), s), f), down)
    up = compose(core.alpha(dual(a), a, c, s), mid)
    up = compose(tensor(dagger(e), identity(c, s)), up)
    return compose(dagger(core.lam(c, s)), up)


def sample(s, rng, dom, cod):
    """Entries spread over twenty decades, so a sum taken in another order would round."""
    shape = (dim(cod), dim(dom))
    arr = s.sample(rng, shape)
    if arr.dtype != np.bool_:
        arr = arr * 10.0 ** rng.uniform(-10, 10, shape)
    return Morphism(dom, cod, arr, s)


def assert_bits(got, want):
    assert got.dom == want.dom and got.cod == want.cod
    assert got.array.dtype == want.array.dtype
    assert np.array_equal(got.array, want.array)


@pytest.mark.parametrize("s", SEMIRINGS, ids=lambda s: s.name)
def test_memoized_legs_give_the_per_call_chains_bit_for_bit(s):
    rng = np.random.default_rng(17)
    for a, b in product(OBJECTS, repeat=2):
        f, g = sample(s, rng, a, b), sample(s, rng, a, b)
        assert_bits(derived_sum(f, g), chain_derived_sum(f, g))
    for a, b, c in product(OBJECTS, repeat=3):
        f = sample(s, rng, Tensor(a, b), Tensor(a, c))
        assert_bits(partial_trace(f, a), chain_partial_trace(f, a))


def test_bell_setup_is_built_once_and_matches_a_fresh_build():
    t, betas = protocols.bell_teleportation_setup()
    assert isinstance(betas, tuple) and len(betas) == 4
    assert protocols.bell_teleportation_setup() == (t, betas)
    fresh_t, fresh_betas = protocols._bell_teleportation_setup.__wrapped__()
    assert_same(t, fresh_t)
    for got, want in zip(betas, fresh_betas):
        assert_same(got, want)


def test_bell_state_is_built_once_and_matches_a_fresh_build():
    bell = protocols._bell_state()
    assert protocols._bell_state() is bell
    q = protocols.qubit()
    fresh = core.scalar_mult(scalar(1 / np.sqrt(2), COMPLEX),
                             core.name(identity(q, COMPLEX)))
    assert_same(bell, fresh)
    assert_same(bell, protocols._bell_state.__wrapped__())


# -- reports do not depend on what ran before them ---------------------------

COMMANDS = [
    ["verify", "ortho", "--model", "rel", "--trials", "5", "--seed", "3"],
    ["verify", "born", "--model", "wproj:fdhilb", "--nu", "1/2", "--trials", "5",
     "--max-dim", "3", "--seed", "3"],
    ["protocol", "teleport", "--state", "[[0.6,0.1],[-0.3,0.7]]", "--seed", "3"],
]
WARMERS = [
    ["verify", "sccc", "--model", "fdhilb", "--trials", "5", "--max-dim", "3"],
    ["verify", "ortho", "--model", "fdhilb", "--trials", "5"],
    ["verify", "sccc", "--model", "rel", "--trials", "5", "--max-dim", "3"],
    ["protocol", "teleport"],
]


def test_reports_do_not_depend_on_cache_history(capsys):
    for argv in WARMERS:
        main(argv + ["--json", "-"])
    capsys.readouterr()
    for argv in COMMANDS:
        assert main(argv + ["--json", "-"]) == 0, argv
        warm = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "sccckit", *argv, "--json", "-"],
                               capture_output=True, text=True, timeout=300)
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout == warm, argv
