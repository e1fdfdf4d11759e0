"""The semiring law spot checks: how many laws, decided by which contract.

``check_semiring_laws`` computes both sides of every law with the scalar
operations and decides them all in one ``entrywise_equal`` pass.  These tests
pin the law count, tie the entrywise criterion to the matrix-level
``approx_equal`` on one-entry arrays and the batched ``equal_to_each`` to it
pair by pair, pin the first violation's message for
four broken semirings, refuse an infinite gap, and show that set-up makes
no matrix equality call.
"""
import dataclasses
from itertools import product

import numpy as np
import pytest

from sccckit.errors import SemiringLawViolation
from sccckit import semirings
from sccckit.semirings import (
    ABS_TOL,
    BOOLEAN,
    COMPLEX,
    NONNEG,
    REL_TOL,
    check_semiring_laws,
    corrupted_complex,
)

SHIPPED = [COMPLEX, BOOLEAN, NONNEG]
# 26 elements (24 samples, zero, one): four laws on each, four on each
# pair, three on each triple of the first eight
LAWS_AT_24 = 26 * 4 + 26 ** 2 * 4 + 8 ** 3 * 3


@pytest.mark.parametrize("s", SHIPPED, ids=lambda s: s.name)
def test_every_law_is_decided(s):
    assert LAWS_AT_24 == 4344
    assert check_semiring_laws(s, np.random.default_rng(7), samples=24) == LAWS_AT_24
    assert check_semiring_laws(s, np.random.default_rng(0)) == LAWS_AT_24
    # five elements, all inside the window of eight for the triples
    assert check_semiring_laws(s, np.random.default_rng(0), samples=3) == 5 * 4 + 5 ** 2 * 4 + 5 ** 3 * 3


_INF, _NAN = float("inf"), float("nan")
_SCALES = [0.0, 1e-3, 1.0, 3.0, 1e6, 1e300]


def _real_pairs():
    """Pairs on both sides of ABS_TOL and of REL_TOL times the scale, plus
    signed zeros, NaN and infinities."""
    pairs = []
    for x in _SCALES:
        for gap in (ABS_TOL, np.nextafter(ABS_TOL, 1.0), REL_TOL * x,
                    np.nextafter(REL_TOL * x, 1.0), 2 * REL_TOL * x, 0.5 * REL_TOL * x):
            pairs += [(x, x + gap), (x + gap, x), (-x, -x - gap)]
    specials = [0.0, -0.0, 1.0, -1.0, ABS_TOL, _NAN, _INF, -_INF, 1e308]
    pairs += list(product(specials, repeat=2))
    return pairs


def _complex_pairs():
    parts = [0.0, -0.0, 1.0, ABS_TOL, _NAN, _INF, -_INF]
    values = [complex(re, im) for re, im in product(parts, repeat=2)]
    pairs = list(product(values, repeat=2))
    pairs += [(1 + 1j, 1 + 1j + 1e-9j), (1 + 1j, 1 + 1j + 2e-9j), (3j, 3j + 1e-11)]
    return pairs


PAIRS = pytest.mark.parametrize("s, pairs", [
    (COMPLEX, _complex_pairs()),
    (COMPLEX, _real_pairs()),
    (NONNEG, _real_pairs()),
    (dataclasses.replace(NONNEG, name="nonneg-exact", exact=True), _real_pairs()),
    (dataclasses.replace(COMPLEX, name="complex-exact", exact=True), _complex_pairs()),
    (BOOLEAN, list(product([False, True], repeat=2))),
], ids=["complex", "complex-real", "nonneg", "nonneg-exact", "complex-exact", "boolean"])


@PAIRS
def test_entrywise_equal_agrees_with_approx_equal_per_entry(s, pairs):
    with np.errstate(invalid="ignore", over="ignore"):
        a = np.array([p for p, _ in pairs], dtype=s.dtype)
        b = np.array([q for _, q in pairs], dtype=s.dtype)
        got = s.entrywise_equal(a, b)
        want = [s.approx_equal(a[k:k + 1], b[k:k + 1]) for k in range(len(pairs))]
    assert got.dtype == np.bool_ and got.shape == a.shape
    assert got.tolist() == want
    assert set(want) == {True, False}


@PAIRS
@pytest.mark.parametrize("rel", [None, 0.0, 1e3])
def test_equal_to_each_agrees_with_approx_equal_pair_by_pair(s, pairs, rel):
    # each left value against the right values it is paired with, then
    # against every right value; a zero beside it makes each array two
    # entries wide without moving either operand's scale
    rights = {}
    for p, q in pairs:
        rights.setdefault(p, []).append(q)
    everything = list(dict.fromkeys(q for _, q in pairs))
    verdicts = set()
    for copy in (s, dataclasses.replace(s, name=f"{s.name}-copy")):
        with np.errstate(invalid="ignore", over="ignore"):
            for p, qs in rights.items():
                a = np.array([[p, s.zero]], dtype=s.dtype)
                for stack_of in (qs, qs[:1], everything[:2], everything):
                    stack = np.array([[[q, s.zero]] for q in stack_of], dtype=s.dtype)
                    got = copy.equal_to_each(a, stack, rel)
                    want = [copy.approx_equal(a, b, rel) for b in stack]
                    assert got.dtype == np.bool_ and got.tolist() == want, (p, rel)
                    verdicts.update(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("s", [COMPLEX, NONNEG], ids=lambda s: s.name)
@pytest.mark.parametrize("rel", [None, 1e-3, 1e3])
def test_an_infinite_entry_does_not_make_every_gap_small(s, rel):
    # the relative threshold rel * max|.| is infinite here, and used to
    # accept the gap 9 - 1 beside the infinite one
    a = np.array([[1, 2], [3, 4]], dtype=s.dtype)
    b = np.array([[9, 9], [9, np.inf]], dtype=s.dtype)
    with np.errstate(invalid="ignore"):
        assert s.approx_equal(a, b, rel) is False
        assert s.approx_equal(b, a, rel) is False
        assert s.equal_to_each(a, np.stack([b, a, b]), rel).tolist() == [False, True, False]
        assert s.equal_to_each(b, np.stack([a, b]), rel).tolist() == [False, False]
        assert not s.entrywise_equal(np.array([1.0, np.inf], s.dtype),
                                     np.array([np.inf, 1.0], s.dtype)).any()


def test_an_overflowing_modulus_still_scales_a_finite_gap():
    # |1.5e308 (1 + i)| overflows, so the scale is infinite although every
    # entry is finite: a finite gap stays within it, an overflowing one not
    a = np.array([[1.5e308 + 1.5e308j, 1.0]])
    near, far = a + np.array([[1e297, 0]]), -a
    with np.errstate(over="ignore", invalid="ignore"):
        assert COMPLEX.approx_equal(a, near) is True
        assert COMPLEX.approx_equal(a, far) is False
        assert COMPLEX.equal_to_each(a, np.stack([near, far, a])).tolist() == [True, False, True]
        assert COMPLEX.entrywise_equal(a, near).tolist() == [[True, True]]
        assert COMPLEX.entrywise_equal(a, far).tolist() == [[False, False]]


@pytest.mark.parametrize("s", SHIPPED, ids=lambda s: s.name)
def test_equal_to_each_on_empty_arrays_and_other_shapes(s):
    a = np.zeros((2, 2), s.dtype)
    for stack in (np.zeros((3, 2, 3), s.dtype), np.zeros((3, 4), s.dtype)):
        assert s.equal_to_each(a, stack).tolist() == [False] * len(stack)
        assert not s.approx_equal(a, stack[0])
    assert s.equal_to_each(a, np.zeros((0, 2, 2), s.dtype)).shape == (0,)
    empty = np.zeros((0, 3), s.dtype)
    assert s.equal_to_each(empty, np.zeros((2, 0, 3), s.dtype)).tolist() == [True] * 2
    assert s.approx_equal(empty, empty)


def test_approx_equal_follows_exact_alone():
    assert COMPLEX.approx_equal is semirings._tolerant_equal
    assert BOOLEAN.approx_equal is semirings._exact_equal
    assert dataclasses.replace(COMPLEX, exact=True).approx_equal is semirings._exact_equal
    with pytest.raises(TypeError):
        dataclasses.replace(COMPLEX, approx_equal=semirings._exact_equal)


@pytest.mark.parametrize("base, change, message", [
    # a per-entry scale catches this at zero; one scale shared by all 4,344
    # laws (about 3) would accept every law
    (COMPLEX, dict(add=lambda x, y: x + y + 1e-11), "x + 0 = x; witnesses (0j,)"),
    (COMPLEX, dict(add=lambda x, y: x + y + 1e-13), None),
    (BOOLEAN, dict(add=lambda x, y: bool(x) and bool(y)), "x + 0 = x; witnesses (np.True_,)"),
    (COMPLEX, dict(mul=lambda x, y: x * y + 1e-6 * x),
     "x * 1 = x; witnesses (np.complex128(0.0012301533574825742+0.15675108662422516j),)"),
], ids=["add+1e-11", "add+1e-13", "boolean-add-is-and", "mul+1e-6x"])
def test_first_violation_is_named_as_before(base, change, message):
    s = dataclasses.replace(base, name="broken", **change)
    if message is None:
        assert check_semiring_laws(s, np.random.default_rng(7)) == LAWS_AT_24
        return
    with pytest.raises(SemiringLawViolation) as err:
        check_semiring_laws(s, np.random.default_rng(7))
    assert str(err.value) == message


def _raise(*args, **kwargs):
    raise AssertionError("matrix equality called while checking semiring laws")


@pytest.mark.parametrize("s", SHIPPED + [corrupted_complex()], ids=lambda s: s.name)
def test_law_check_makes_no_matrix_equality_call(monkeypatch, s):
    monkeypatch.setattr(semirings, "_tolerant_equal", _raise)
    monkeypatch.setattr(semirings, "_exact_equal", _raise)
    fresh = dataclasses.replace(s)
    assert check_semiring_laws(fresh, np.random.default_rng(7)) == LAWS_AT_24
    # the copy derives its matrix equality from the patched functions, so a
    # law decided through it would have raised
    with pytest.raises(AssertionError):
        fresh.approx_equal(np.zeros(1, s.dtype), np.zeros(1, s.dtype))
