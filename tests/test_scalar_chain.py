"""The scalar chain of the Born calculus, pinned to the chain as first written.

``scalar``, ``scalar_value``, ``scalar_power``, ``valuation_norm`` and
``scalar_sum`` read nu once per table, fill 1 x 1 arrays in place and pass
python floats through the real checks unconverted.  The chain they replaced
is written out below, step by step, and every output is held to it byte for
byte: the same arrows (ends, dtype and bytes), the same python values (type
and repr) and the same errors (type and text).  There are three intended
differences.  A zero scalar at a negative power now raises
``RootUnavailable`` where the first chain let python's ``ZeroDivisionError``
escape, a power that overflows a float now raises ``NumericRange``,
naming the exponent and the value, where it let ``OverflowError`` escape,
and a quotient scalar whose doubled value c c(dagger) is not finite now
raises ``NumericRange`` naming c, where the first chain carried the inf or
NaN on (marked below by the ``FloatingPointError`` it raises instead).
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from sccckit import (
    Gen,
    Morphism,
    NumericRange,
    RootUnavailable,
    TypeMismatch,
    UNIT,
    compose,
    dagger,
    decomposition,
    dim,
    direct_sum,
    fdhilb,
    resolve_model,
    run_suite,
    scalar,
)
from sccckit import born, core, wproj
from sccckit.semirings import REAL_TOL, nonneg_value, real_value

# entries near 1e150 overflow where both chains overflow, to the same bytes
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

SELECTORS = ["fdhilb", "rel", "weights", "wproj:fdhilb", "wproj:rel", "wproj:weights"]
# nu = 1, 1/2 and 2, each as a Fraction, an int where it is one, and a string
NUS = [Fraction(1), 1, "1", Fraction(1, 2), "1/2", Fraction(2), 2, "2"]
EXPONENTS = NUS + [Fraction(-1), -2, Fraction(-1, 2), Fraction(0), Fraction(3, 4)]
BIG, TINY = 1e150, 1e-150


def _entries(selector: str) -> list:
    s = resolve_model(selector).semiring
    if s.dtype == np.bool_:
        return [False, True]
    real = [0.0, -0.0, 1.0, 2.5, 0.3, BIG, TINY, -2.0]
    if s.dtype == np.float64:
        return real
    return real + [3 + 4j, BIG * 1j, complex(TINY, TINY), 1 + 1e-12j, -1j]


def _scalars(selector: str) -> list[Morphism]:
    s = resolve_model(selector).semiring
    return [Morphism(UNIT, UNIT, np.array([[v]]), s) for v in _entries(selector)]


def _arrows(selector: str) -> list[Morphism]:
    s = resolve_model(selector).semiring
    a, b = Gen("A", 2), Gen("B", 2)
    if s.dtype == np.bool_:
        grids = [[[False, False], [False, False]], [[True, False], [True, True]]]
    else:
        grids = [[[0, 0], [0, 0]], [[BIG, 0], [0, 1]], [[TINY, 2], [3, 4]],
                 [[BIG, BIG], [BIG, BIG]]]
        if s.dtype != np.float64:
            grids.append([[1 + 2j, 3], [0, 4j]])
    return [Morphism(a, b, np.array(g), s) for g in grids]


# -- the chain as first written -------------------------------------------------

def _old_real_value(v):
    v = complex(v)
    if abs(v.imag) > REAL_TOL * max(1.0, abs(v)) or math.isinf(v.imag):
        return None
    return v.real


def _old_nonneg_value(v):
    r = _old_real_value(v)
    return None if r is None or r < -REAL_TOL else max(r, 0.0)


def _old_morphisms_scalar(value, s):
    arr = np.asarray([[value]], dtype=s.dtype)
    if arr.shape != (1, 1):
        raise TypeMismatch(f"{s.name} kernel returned shape {arr.shape}, expected (1, 1)")
    return Morphism(UNIT, UNIT, arr, s)


def _old_scalar(model, value):
    if not model.quotient:
        return _old_morphisms_scalar(value, model.semiring)
    r = _old_nonneg_value(value)
    if r is None:
        raise TypeMismatch(f"quotient scalars are nonnegative reals, got {value}")
    return _old_morphisms_scalar(np.sqrt(r), model.semiring)


def _old_scalar_value(model, s):
    if not s.is_scalar:
        raise TypeMismatch(f"not a scalar: {s!r}")
    if not model.quotient:
        return s.array[0, 0].item()
    c, sr = s.array[0, 0], s.semiring
    v = np.asarray(sr.mul(c, sr.involution(c))).item()
    if not np.isfinite(v):
        raise FloatingPointError(f"the doubled value {v} of {c} is carried on")
    r = _old_real_value(v) if isinstance(v, complex) else v
    if r is None:
        raise TypeMismatch(f"doubled scalar came out non-real: {v}")
    return r


def _old_scalar_power(model, s, exponent):
    if model.semiring.idempotent:
        return s if float(exponent) != 0 else _old_scalar(model, model.semiring.one)
    v = _old_scalar_value(model, s)
    q = float(exponent)
    if q == int(q):
        return _old_scalar(model, v ** int(q))
    r = _old_nonneg_value(v)
    if r is None:
        raise RootUnavailable(f"cannot take power {exponent} of non-positive scalar {v}")
    return _old_scalar(model, r ** q)


def _old_valuation_norm(model, f, nu):
    return _old_scalar_power(model, core.trace(compose(dagger(f), f)), Fraction(nu))


def _old_scalar_sum(model, s, t, nu):
    nu = Fraction(nu)
    a = _old_scalar_power(model, s, 1 / nu)
    b = _old_scalar_power(model, t, 1 / nu)
    return _old_scalar_power(model, core.trace(direct_sum(a, b)), nu)


# -- comparing outcomes ----------------------------------------------------------

def _outcome(call):
    """What a call gives, down to the bytes: an arrow, a python value or an error."""
    try:
        out = call()
    except (ArithmeticError, TypeError, ValueError, TypeMismatch, RootUnavailable,
            NumericRange) as exc:
        return ("raises", type(exc).__name__, str(exc))
    if isinstance(out, Morphism):
        return ("arrow", out.dom, out.cod, out.semiring.name, out.array.dtype.str,
                out.array.shape, out.array.tobytes())
    return ("value", type(out).__name__, repr(out))


class _Overflow:
    """The text of a ``NumericRange`` refusal: it equals any string that
    names this exponent (any, when None) and a value, as the refusal does;
    with ``doubled``, any that names the scalar whose doubled value it is."""

    def __init__(self, exponent=None, doubled=False):
        named = r"\S+" if exponent is None else re.escape(str(exponent))
        self.pattern = (r"the doubled value of the scalar \S+ is not finite" if doubled
                        else rf"power {named} of the scalar value \S+ overflows")

    def __eq__(self, other):
        return isinstance(other, str) and re.fullmatch(self.pattern, other) is not None

    def __repr__(self):
        return f"<text matching {self.pattern!r}>"


def _expected(old_call, exponent=None):
    """The first chain's outcome, with its zero-scalar and overflow crashes
    and its non-finite doubled values as the refusals."""
    got = _outcome(old_call)
    if got[:2] == ("raises", "ZeroDivisionError"):
        return ("raises", "RootUnavailable", f"cannot take power {exponent} of the zero scalar")
    if got[:2] == ("raises", "OverflowError"):
        return ("raises", "NumericRange", _Overflow(exponent))
    if got[:2] == ("raises", "FloatingPointError"):
        return ("raises", "NumericRange", _Overflow(doubled=True))
    return got


def _values():
    floats = [0.0, -0.0, 1.0, -1.0, 2.5, -1e-10, -1e-8, BIG, TINY, 1e308, math.inf,
              -math.inf, math.nan]
    return (floats + [0, 1, -3, True, False, np.float64(2.5), np.float64(-0.0),
                      np.complex128(1 + 1e-12j), np.complex128(3 + 0j)]
            + [complex(x, y) for x in (1.0, -2.0, BIG, TINY)
               for y in (0.0, -0.0, 1e-12, 1e-6, 1.0, math.inf, math.nan)])


@pytest.mark.parametrize("v", _values(), ids=repr)
def test_real_and_nonneg_value_are_the_first_chain(v):
    assert _outcome(lambda: real_value(v)) == _outcome(lambda: _old_real_value(v))
    assert _outcome(lambda: nonneg_value(v)) == _outcome(lambda: _old_nonneg_value(v))


@pytest.mark.parametrize("selector", SELECTORS)
def test_scalar_and_scalar_value_are_the_first_chain(selector):
    m = resolve_model(selector)
    for value in _entries(selector) + [0, 1, 2, -1, 1e-300, math.inf, math.nan, True]:
        assert _outcome(lambda: m.scalar(value)) == _outcome(
            lambda: _old_scalar(m, value)), value
    for s in _scalars(selector) + _arrows(selector)[:1]:
        assert _outcome(lambda: m.scalar_value(s)) == _expected(
            lambda: _old_scalar_value(m, s)), s.array


@pytest.mark.parametrize("selector", SELECTORS)
def test_scalar_power_is_the_first_chain(selector):
    m = resolve_model(selector)
    for s in _scalars(selector):
        for e in EXPONENTS:
            assert _outcome(lambda: m.scalar_power(s, e)) == _expected(
                lambda: _old_scalar_power(m, s, e), e), (s.array, e)


@pytest.mark.parametrize("selector", SELECTORS)
def test_valuations_and_scalar_sums_are_the_first_chain(selector):
    m = resolve_model(selector)
    scalars = _scalars(selector)
    pairs = [(s, t) for s in scalars[:6] for t in scalars[::3]]
    for nu in NUS:
        for f in _arrows(selector) + scalars:
            assert _outcome(lambda: born.valuation_norm(m, f, nu)) == _expected(
                lambda: _old_valuation_norm(m, f, nu)), (f.array, nu)
        for s, t in pairs:
            assert _outcome(lambda: born.scalar_sum(m, s, t, nu)) == _expected(
                lambda: _old_scalar_sum(m, s, t, nu)), (s.array, t.array, nu)


# -- what the chain refuses ------------------------------------------------------

@pytest.mark.parametrize("selector", ["fdhilb", "rel", "weights"])
def test_a_scalar_of_more_than_one_entry_is_refused(selector):
    s = resolve_model(selector).semiring
    for value in ([1, 0], [], np.ones((2, 2))):
        with pytest.raises(ValueError, match="could not broadcast"):
            scalar(value, s)
    # one entry in a container is that entry
    assert scalar([[1]], s).array.tobytes() == scalar(1, s).array.tobytes()


@pytest.mark.parametrize("selector", ["fdhilb", "weights", "wproj:fdhilb", "wproj:weights"])
@pytest.mark.parametrize("exponent", [Fraction(-1), -2, Fraction(-1, 2)], ids=str)
def test_a_zero_scalar_has_no_negative_power(selector, exponent):
    m = resolve_model(selector)
    with pytest.raises(RootUnavailable, match=f"^cannot take power {exponent} of the zero scalar$"):
        m.scalar_power(m.scalar(0), exponent)


@pytest.mark.parametrize("nu", [0, Fraction(0), -1, Fraction(-1, 2), "0", "-2", "1/0",
                                "half", None, math.nan, math.inf, -0.5], ids=repr)
def test_a_nu_that_is_not_a_positive_rational_is_refused_where_it_enters(nu):
    m = fdhilb()
    one = m.scalar(1)
    decomp = decomposition(Gen("B1", 1), Gen("B2", 2))
    f = Morphism(Gen("A", 2), decomp.whole, np.ones((dim(decomp.whole), 2)), m.semiring)
    calls = [lambda: run_suite("born", m, trials=1, nu=nu),
             lambda: born.scalar_sum(m, one, one, nu),
             lambda: born.valuation_norm(m, one, nu),
             lambda: born.check_born_decomposition(m, f, decomp, nu)]
    message = f"^nu must be a positive rational, got {re.escape(repr(nu))}$"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


# -- what the chain costs --------------------------------------------------------

def _fractions_made(monkeypatch, selector: str, trials: int, nu) -> int:
    """How many Fractions one born run constructs."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(Fraction, "__new__", counting)
        run_suite("born", resolve_model(selector), trials=trials, seed=3, nu=nu)
    return len(made)


@pytest.mark.parametrize("selector", ["wproj:fdhilb", "fdhilb"])
@pytest.mark.parametrize("nu", ["1", "1/2", "2"])
def test_the_born_suite_makes_no_fraction_per_trial(monkeypatch, selector, nu):
    # nu, 1/nu, 1/2 and 1/(2 nu) are read when the tables are built; a
    # trial only reads them, so twice the trials make no more Fractions
    at_20 = _fractions_made(monkeypatch, selector, 20, nu)
    assert at_20 == _fractions_made(monkeypatch, selector, 40, nu)
    assert at_20 <= 10


def _floats_taken(monkeypatch, selector: str, trials: int) -> int:
    """How many times one born run converts a Fraction with ``float``."""
    taken = []
    to_float = Fraction.__float__

    def counting(self):
        taken.append(self)
        return to_float(self)

    with monkeypatch.context() as mp:
        mp.setattr(Fraction, "__float__", counting)
        run_suite("born", resolve_model(selector), trials=trials, seed=3, nu="1/2")
    return len(taken)


@pytest.mark.parametrize("selector", ["wproj:fdhilb", "fdhilb"])
def test_the_born_suite_converts_no_fraction_per_trial(monkeypatch, selector):
    # each exponent a table hands scalar_power keeps the float it was built
    # with, so twice the trials convert no more Fractions
    assert (_floats_taken(monkeypatch, selector, 20)
            == _floats_taken(monkeypatch, selector, 40))


def test_the_born_suite_aligns_no_scalar_pair(monkeypatch):
    # quotient scalars are decided from their doubled values, not aligned
    aligned = []
    align = wproj.phase_align

    def counting(f, g):
        aligned.append(f.array.shape)
        return align(f, g)

    monkeypatch.setattr(wproj, "phase_align", counting)
    run_suite("born", resolve_model("wproj:fdhilb"), trials=20, seed=3, nu="1/2")
    assert (1, 1) not in aligned
