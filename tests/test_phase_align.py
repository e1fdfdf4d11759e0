"""Phase alignment decides quotient equality as criterion 1 does.

``WProjModel.equal`` settles a 1 x 1 pair from its doubled values, a larger
pair from ``phase_align``'s bounds, and builds the doubled forms only for
non-finite values, which it refuses, and inside the band the bounds leave
open.  Every verdict it gives
must be criterion 1's, ``approx_equal(lift(f), lift(g), rel)``, on pairs
straddling the threshold and on the pairs the suites draw.
"""
from collections import Counter

import numpy as np
import pytest

from sccckit import (BOOLEAN, COMPLEX, NONNEG, CriterionDisagreement,
                     NumericRange, Gen, Morphism, Oplus, UNIT,
                     WProjModel, compose, core, dagger, identity, resolve_model,
                     run_suite, scalar, scalar_mult, semiring_model, wproj)
from sccckit.semirings import ABS_TOL, REL_TOL, corrupted_complex, max_abs
from sccckit.suites import SUITE_NAMES

A, B = Gen("A", 2), Gen("B", 3)
RELS = [None, 0.0, 1e-3, 1e3, -1.0]


def criterion_one(f, g, rel):
    return f.semiring.approx_equal(wproj.lift(f), wproj.lift(g), rel)


@pytest.fixture
def fallbacks(monkeypatch):
    """The pairs ``_settled`` leaves open, which ``WProjModel.equal``
    decides on their doubled forms."""
    seen = []
    original = wproj._settled

    def recording(f, g, rel):
        verdict = original(f, g, rel)
        if verdict is None:
            seen.append((f, g))
        return verdict

    monkeypatch.setattr(wproj, "_settled", recording)
    return seen


def _mor(s, arr):
    return Morphism(A, B, np.asarray(arr, dtype=s.dtype), s)


def _straddling(rel, rng):
    """Pairs whose doubled forms differ by k times the threshold in force,
    along f (g = (1 + d) u f) and across it (g = u f + d), at small entries
    where ABS_TOL rules and at large ones where rel times the scale does;
    and f against zero with max|f|^2 = k ABS_TOL, where the pivot column
    carries the whole gap and the lower bound is tight."""
    rel_eff = REL_TOL if rel is None else rel
    for s in (COMPLEX, NONNEG):
        for k in (1e-3, 0.5, 0.99, 1.01, 2.0, 1e3):
            for size in (1e-4, 1e2):
                f = s.sample(rng, (3, 2)) * size
                u = s.phase(rng) if s.phase else s.one
                m = max_abs(f)
                step = k * max(ABS_TOL, rel_eff * m * m) / (2 * m)
                yield "straddle", _mor(s, f), _mor(s, u * f * (1 + step / m))
                d = s.sample(rng, (3, 2))
                yield "straddle", _mor(s, f), _mor(s, u * f + d * step / max_abs(d))
            f = s.sample(rng, (3, 2))
            f *= np.sqrt(k * ABS_TOL) / max_abs(f)
            yield "straddle", _mor(s, f), _mor(s, np.zeros((3, 2)))


def _edges(rng):
    """Zero arrows, a g that vanishes at f's pivot, the identity involution
    on complex entries, and non-finite entries."""
    f = COMPLEX.sample(rng, (3, 2))
    zero = np.zeros((3, 2))
    yield "zero", _mor(COMPLEX, zero), _mor(COMPLEX, zero)
    yield "zero", _mor(COMPLEX, zero), _mor(COMPLEX, f * 1e-8)
    yield "zero", _mor(COMPLEX, zero), _mor(COMPLEX, f)
    yield "zero", _mor(NONNEG, zero), _mor(NONNEG, np.abs(f))
    vanishing = f.copy()
    vanishing.flat[wproj._pivot(f)] = 0
    yield "vanishing", _mor(COMPLEX, f), _mor(COMPLEX, vanishing)
    # under the identity involution -1 is a unit and i is not
    corrupted = corrupted_complex()
    yield "corrupted", _mor(corrupted, f), _mor(corrupted, -f)
    yield "corrupted", _mor(corrupted, f), _mor(corrupted, 1j * f)
    for bad in (np.nan, np.inf):
        g = f.copy()
        g[1, 0] = bad
        yield "non-finite", _mor(COMPLEX, f), _mor(COMPLEX, g)
        yield "non-finite", _mor(COMPLEX, g), _mor(COMPLEX, f)


def test_the_quotient_decides_as_criterion_one_across_the_threshold(fallbacks):
    models = {}
    seen = Counter()
    for rel in RELS:
        rng = np.random.default_rng(61)
        for kind, f, g in [*_straddling(rel, rng), *_edges(rng)]:
            model = models.setdefault(
                f.semiring, WProjModel(semiring_model(f.semiring)))
            before = len(fallbacks)
            if kind == "non-finite":
                # left open by the bounds, and refused on the doubled forms
                with np.errstate(all="ignore"), pytest.raises(
                        NumericRange, match="doubled forms .* are not finite"):
                    model.equal(f, g, rel)
                assert len(fallbacks) == before + 1
                seen[kind, "fallback"] += 1
                continue
            verdict = model.equal(f, g, rel)
            assert verdict == criterion_one(f, g, rel), (kind, rel, f.array, g.array)
            settled = "fallback" if len(fallbacks) > before else "settled"
            seen[kind, settled] += 1
            seen[rel if rel is None else float(rel), verdict, settled] += 1
    # both verdicts settle by alignment at every rel that allows both (gaps
    # never reach 1e3 times the scale), and the band is reached too
    for rel in (None, 0.0, 1e-3, -1.0):
        for verdict in (True, False):
            assert seen[rel, verdict, "settled"], (rel, verdict)
    assert seen[1e3, True, "settled"]
    assert seen["straddle", "fallback"]
    # a zero f, a g vanishing at the pivot and -1 under the identity
    # involution settle; a large g against a zero f and i under the identity
    # involution fall back
    for kind in ("zero", "vanishing", "corrupted"):
        assert seen[kind, "settled"], kind
    assert seen["zero", "fallback"] and seen["corrupted", "fallback"]


def _scalar_straddling(rel, rng):
    """1 x 1 pairs whose doubled values differ by k times the threshold in
    force, up and (where it stays positive) down, at a small entry where
    ABS_TOL rules and a large one where rel times the scale does, with g
    rotated by a unit."""
    rel_eff = REL_TOL if rel is None else rel
    for s in (COMPLEX, NONNEG, corrupted_complex()):
        for k in (1e-3, 0.5, 0.99, 1.01, 2.0, 1e3):
            for size in (1e-4, 1e2):
                c = s.sample(rng, (1, 1)) * size
                u = s.phase(rng) if s.phase else s.one
                v = max_abs(c) ** 2
                step = k * max(ABS_TOL, rel_eff * v) / v
                for sign in (1, -1) if step < 1 else (1,):
                    d = u * c * np.sqrt(1 + sign * step)
                    yield (Morphism(UNIT, UNIT, c.astype(s.dtype), s),
                           Morphism(UNIT, UNIT, d.astype(s.dtype), s))


def test_the_quotient_decides_scalars_in_closed_form(monkeypatch, fallbacks):
    aligned = []
    original = wproj.phase_align
    monkeypatch.setattr(wproj, "phase_align",
                        lambda f, g: aligned.append(f) or original(f, g))
    models = {}
    seen = Counter()
    for rel in RELS:
        rng = np.random.default_rng(67)
        for f, g in _scalar_straddling(rel, rng):
            model = models.setdefault(
                f.semiring, WProjModel(semiring_model(f.semiring)))
            verdict = model.equal(f, g, rel)
            assert verdict == criterion_one(f, g, rel), (rel, f.array, g.array)
            seen[rel if rel is None else float(rel), verdict] += 1
    # both verdicts are reached at every rel that allows both, and no
    # finite pair is aligned or left open
    for rel in (None, 0.0, 1e-3, -1.0):
        assert seen[rel, True] and seen[rel, False], rel
    assert aligned == [] and fallbacks == []


@pytest.mark.parametrize("c,d", [
    (np.nan, 1.0), (1.0, np.inf), (complex(np.inf, 1), 1.0), (1e200, 1e200),
], ids=["nan", "inf", "complex-inf", "overflowing"])
def test_a_non_finite_scalar_pair_raises_numeric_range(fallbacks, c, d):
    # a doubled value that is NaN or infinite, or overflows to one, is left
    # open by the closed form, and the doubled forms are refused
    model = resolve_model("wproj:fdhilb")
    f, g = (Morphism(UNIT, UNIT, np.array([[x]], dtype=complex), COMPLEX)
            for x in (c, d))
    with np.errstate(all="ignore"), pytest.raises(
            NumericRange, match=r"the doubled forms of Morphism\(I -> I, complex\) "
                                "are not finite"):
        model.equal(f, g)
    assert fallbacks == [(f, g)]


@pytest.mark.parametrize("rel", [2.0, 1e-9])
@pytest.mark.parametrize("m", [1e120, 1e150])
def test_large_entries_are_not_settled_by_an_overflowing_bound(m, rel):
    # f and g put m on different entries: their doubled forms differ by m^2
    # at the scale m^2, so criterion 1 holds at rel 2 and fails at 1e-9.  The
    # lower bound, about m^2 / 2, once took the product eps m m first, which
    # overflows from m near 1e103, and settled the pair unequal at rel 2
    f, g = np.zeros((3, 2)), np.zeros((3, 2))
    f[0, 0] = g[1, 1] = m
    f, g = _mor(COMPLEX, f), _mor(COMPLEX, g)
    model = resolve_model("wproj:fdhilb")
    assert model.equal(f, g, rel) == criterion_one(f, g, rel) == (rel == 2.0)


def test_the_quotient_decides_booleans_exactly_and_never_falls_back(fallbacks):
    # over booleans f (x) f^T = g (x) g^T iff f = g, so alignment settles
    # every pair
    model = WProjModel(resolve_model("rel"))
    cells = [np.array(v, dtype=bool).reshape(2, 2) for v in np.ndindex(2, 2, 2, 2)]
    for x in cells:
        for y in cells:
            f, g = Morphism(A, A, x, BOOLEAN), Morphism(A, A, y, BOOLEAN)
            assert model.equal(f, g) == criterion_one(f, g, None) == (x == y).all()
    assert fallbacks == []


def test_phase_align_reads_the_phase_at_the_pivot():
    f = _mor(COMPLEX, [[1, -3j], [2, 3], [0, 1]])
    u = np.exp(0.7j)
    c, eps, m = wproj.phase_align(f, _mor(COMPLEX, u * f.array))
    assert abs(c - u) < 1e-15 and eps < 1e-15 and m == 3.0
    # the pivot is the first entry of largest modulus, -3j, as canonical_rep's
    g = f.array.copy()
    g[0, 1] *= -1
    c, eps, m = wproj.phase_align(f, _mor(COMPLEX, g))
    assert c == -1 and eps == 6.0
    # under the identity involution on reals c is the sign
    c, _, _ = wproj.phase_align(_mor(NONNEG, [[1, 2], [4, 3], [0, 0]]),
                                _mor(NONNEG, [[-2, -4], [-8, -6], [0, 0]]))
    assert c == -1.0
    # a zero pivot entry leaves every unit alike, and c is one
    c, eps, m = wproj.phase_align(_mor(COMPLEX, np.zeros((3, 2))), f)
    assert (c, eps, m) == (1, 3.0, 0.0)


def test_an_associator_pair_is_settled_without_its_doubled_forms(monkeypatch):
    # structural-isos-unitary draws u = alpha on 6 x 6 x 2 = 72 dimensions
    # and compares u(dagger) o u with the identity; each criterion would
    # build an array of 72^4 entries (430 MB)
    s = COMPLEX
    a = Oplus(Gen("A", 3), Gen("A2", 3))
    b = Oplus(Gen("B", 3), Gen("B2", 3))
    iso = core.alpha(a, b, Gen("C", 2), s)
    assert iso.array.shape == (72, 72)

    def refuse(*args):
        raise AssertionError("an N^2 matrix was built")

    for module, name in ((wproj, "lift"), (wproj, "_lowered"),
                         (core, "projector_array")):
        monkeypatch.setattr(module, name, refuse)
    model = resolve_model("wproj:fdhilb")
    assert model.equal(compose(dagger(iso), iso), identity(iso.dom, s), REL_TOL)
    one = identity(iso.dom, s)
    assert not model.equal(one, scalar_mult(scalar(2, s), one), REL_TOL)


def test_every_suite_verdict_is_wequals_and_nothing_falls_back(monkeypatch, fallbacks):
    """Every ``model.equal`` call of every suite on the three quotients
    gives wequal's verdict.

    None falls back at seed 1: a zero f and a g that vanishes at f's pivot
    are settled with c = one, booleans are settled exactly, and the suites
    draw no pair whose doubled forms differ within a factor ALIGN_MARGIN of
    the threshold.  A pair that does lands in ``fallbacks``.
    """
    original = WProjModel.equal
    calls = Counter()
    # kept outside the runner, which records a library error as a failed row
    split = []

    def spying(self, f, g, rel=None):
        verdict = original(self, f, g, rel)
        try:
            agrees = verdict == wproj.wequal_to(f, rel)(g)
        except CriterionDisagreement:
            agrees = False
        if not agrees:
            split.append((self.name, f, g, rel))
        calls[self.name] += 1
        return verdict

    monkeypatch.setattr(WProjModel, "equal", spying)
    for selector in ("wproj:fdhilb", "wproj:rel", "wproj:weights"):
        for suite in SUITE_NAMES:
            run_suite(suite, resolve_model(selector), trials=10, seed=1, max_dim=2)
    assert split == []
    # 2,846 calls at this seed: 1,024 on fdhilb, 908 on rel, 914 on weights
    assert sorted(calls) == ["wproj:fdhilb", "wproj:rel", "wproj:weights"]
    assert len(fallbacks) == 0
