"""The memoized structure maps against fresh builds, and reports against cache history.

Each memoized constructor must hand out exactly what an uncached build
(``__wrapped__``) makes now: same normal-form ends, same dtype, the same
entries, and a frozen array.  A semiring is part of every key, by identity,
so a copy of a semiring with equal fields gets its own entries.  Reports at a
fixed seed must not depend on what ran before them in the process.
"""

import ast
import dataclasses
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import sccckit
from sccckit import (BOOLEAN, COMPLEX, NONNEG, UNIT, ZERO, Dual, Gen, Morphism,
                     Oplus, Tensor, compose, core, dagger, derived_sum, dim,
                     direct_sum, dual, identity, ortho, partial_trace, protocols,
                     scalar, tensor)
from sccckit.cli import main
from sccckit.morphisms import eye
from sccckit.objects import format_object
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


def test_the_teleport_setup_is_built_once_and_matches_a_fresh_build():
    setup = protocols.bell_teleportation_setup()
    assert protocols.bell_teleportation_setup() is setup
    fresh = protocols._bell_setup.__wrapped__()
    assert setup._fields == ("t", "betas", "undo", "legs", "receive", "bell",
                             "collapse")
    for field in setup._fields[:-1]:
        got, want = getattr(setup, field), getattr(fresh, field)
        got, want = ([got], [want]) if isinstance(got, Morphism) else (list(got), list(want))
        assert len(got) == len(want) == (1 if field in ("t", "receive", "bell") else 4)
        for g, w in zip(got, want):
            assert_same(g, w)
    assert setup.collapse == fresh.collapse
    for undo, beta in zip(setup.undo, setup.betas):
        assert_same(undo, dagger(beta))
    q = protocols.qubit()
    assert_same(setup.bell, core.scalar_mult(scalar(1 / np.sqrt(2), COMPLEX),
                                             core.name(identity(q, COMPLEX))))


def test_eye_is_built_once_per_dimension_and_matches_a_fresh_build():
    for s in SEMIRINGS:
        for n in range(5):
            got = eye(n, s)
            assert eye(n, s) is got
            want = eye.__wrapped__(n, s)
            assert got.dtype == want.dtype == s.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable


def test_format_object_is_rendered_once_and_matches_a_fresh_build():
    r = Gen("R", 3)
    nested = [Tensor(Q, Oplus(UNIT, r)), Dual(Tensor(Q, Dual(r))),
              Oplus(Oplus(Q, ZERO), Tensor(Tensor(Q, r), UNIT)),
              Dual(Oplus(Dual(Q), Tensor(ZERO, r)))]
    for a in OBJECTS + nested + [dual(a) for a in nested]:
        got = format_object(a)
        assert format_object(a) is got
        assert got == format_object.__wrapped__(a)


# -- the legs of a teleport ---------------------------------------------------

def chain_teleport_branches(psi, t):
    """_teleport_branches with every leg built per call, as one pipeline."""
    q, s = protocols.qubit(), COMPLEX
    bell = core.scalar_mult(scalar(1 / np.sqrt(2), s), core.name(identity(q, s)))
    paired = compose(tensor(psi, bell), core.lam(UNIT, s))
    joint = compose(core.sigma(q @ q, q, s), compose(core.alpha(q, q, q, s), paired))
    four = ortho.decomposition(UNIT, UNIT, UNIT, UNIT)
    arms = [compose(ortho.pseudo_projection(four, i, s), t) for i in range(4)]
    rho_back = dagger(core.rho(q, s))
    return [compose(rho_back, compose(tensor(identity(q, s), a), joint)) for a in arms]


def test_teleport_branches_give_the_per_call_chain_bit_for_bit():
    setup = protocols.bell_teleportation_setup()
    rng = np.random.default_rng(23)
    for _ in range(5):
        psi = Morphism(UNIT, protocols.qubit(), rng.normal(size=(2, 1))
                       + 1j * rng.normal(size=(2, 1)), COMPLEX)
        outs = protocols._teleport_branches(psi, setup)
        want = chain_teleport_branches(psi, setup.t)
        assert len(outs) == len(want) == 4
        for got, w in zip(outs, want):
            assert_bits(got, w)


# -- every memo in the package is vouched for -----------------------------------

# memos compared with a fresh build (``__wrapped__``) in this file; the
# collapse witness's per-caller copy is checked in test_protocols.py
FRESH_BUILT = {fn for fn, _ in calls()} | {eye, format_object, protocols._bell_setup}

# memos compared with nothing, and why sharing one is sound
UNCOMPARED = {
    "cli.build_parser": "parsing never changes the parser; test_cli replays a "
                        "warm parser against a fresh process",
    "models.fdhilb": "a frozen handle of a name and a shipped semiring",
    "models.rel_model": "a frozen handle of a name and a shipped semiring",
    "models.weight_model": "a frozen handle of a name and a shipped semiring",
    "objects.dim": "an int, a function of one immutable object expression",
    "objects.normalize": "an immutable object expression, a function of another",
    "report._blas_threads": "two functions of the BLAS library numpy loaded, "
                            "which stays loaded for the life of the process",
    "semirings.InvolutiveSemiring.approx_equal": "one of two module functions, "
                                                 "picked by the frozen field exact",
    "semirings.InvolutiveSemiring.idempotent": "a bool read off the frozen fields "
                                               "zero, one and add",
}
MEMOIZERS = {"lru_cache", "cache", "cached_property"}


def _memoizer(node) -> bool:
    """Whether a decorator or a call names one of ``MEMOIZERS``."""
    node = node.func if isinstance(node, ast.Call) else node
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in MEMOIZERS


def _memo_names(tree, module):
    """'module.qualname' of each function or method decorated with a memoizer."""
    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_memoizer(d) for d in node.decorator_list):
                    yield f"{prefix}{node.name}"
                yield from visit(node.body, f"{prefix}{node.name}.")

    yield from visit(tree.body, f"{module}.")


def test_every_memo_is_compared_with_a_fresh_build_or_has_a_reason():
    found = set()
    for path in sorted(Path(sccckit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found |= set(_memo_names(tree, path.stem))
        # a memoizer applied other than as a decorator would escape the scan
        decorators = {id(d) for node in ast.walk(tree)
                      for d in getattr(node, "decorator_list", [])}
        stray = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and id(node) not in decorators
                 and _memoizer(node)]
        assert not stray, (path.name, stray)
    compared = {f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}"
                for fn in FRESH_BUILT}
    assert not compared & set(UNCOMPARED)
    assert found == compared | set(UNCOMPARED), (
        sorted(found - compared - set(UNCOMPARED)),
        sorted((compared | set(UNCOMPARED)) - found))


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
