"""Global-phase quotient of a matrix model: the model only (``suites`` checks it).

Arrows of the quotient are morphisms taken up to a unit-modulus scalar
factor.  ``WProjModel`` keeps the matrices of its base model: a quotient
arrow is handed around as any representative ``Morphism``, and composition,
tensor, dagger, trace and the block sum are the base's, computed on
representatives.  Only two things change.  Which matrices count as one
arrow: [f] = [g] iff g = c.f for a unit c, and ``equal`` decides it by
the doubled forms: two scalars by their doubled values, in closed form,
and larger arrows by aligning g to f by one phase (``phase_align``), in
work linear in the entries.  Only when a non-finite value or alignment's
bounds leave the verdict open does it build the doubled forms and compare
them, and it refuses ones that are not finite with ``NumericRange``.
``wequal`` decides three ways at once, returns the verdict the three share
and refuses to answer when they split; equality does not restate that
agreement, which the ``equality-criteria-agree`` row checks.
And what value a scalar has: the value of the class of c is its doubled
value c c(dagger), one product in the semiring, and the scalar constructor
picks the nonnegative root as representative.

A class is its representative; nothing travels with it.  ``wequal`` reads
two representatives and computes each criterion's matrices from them with
the semiring's own kernels: the doubled form f(x)f(dagger) (``lift``, the
semantic identity of the class), f(x)f(lower-star) and the name projector,
each of N^2 entries for an arrow of N.  It builds no arrow beyond the lower
star f_*; the projector's name column is f's stacked columns
(``core.name_array``).  ``wequal_to(f, rel)`` decides the same as a
predicate on g, for one f met by many g: it keeps f's matrices from its first call.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from . import core
from .errors import CriterionDisagreement, NumericRange, TypeMismatch
from .models import ModelHandle
from .morphisms import Morphism, kernel_array, lower_star, scalar
from .objects import format_object
from .semirings import ALIGN_MARGIN, _within, max_abs, nonneg_value, real_value

# the relative error, in ulps of float64, that the alignment bounds allow
# each rounded product, difference and modulus they stand for
_ROUNDING = 8 * np.finfo(np.float64).eps
# the least normal float64: below it, z/|z| is no longer a unit
_TINY = np.finfo(np.float64).tiny


def lift(f: Morphism) -> np.ndarray:
    """The matrix of the doubled form f (x) f(dagger), the identity of f's
    phase class, byte for byte as ``core.double(f).array``."""
    s = f.semiring
    m, n = f.array.shape
    adjoint = kernel_array(s.involution(f.array.T), s, (n, m))
    return kernel_array(s.kron(f.array, adjoint), s, (m * n, n * m))


def _lowered(f: Morphism) -> np.ndarray:
    """The matrix of f (x) f_*, as ``tensor`` would compute it."""
    s = f.semiring
    m, n = f.array.shape
    return kernel_array(s.kron(f.array, lower_star(f).array), s, (m * m, n * n))


def _same_type(f: Morphism, g: Morphism) -> None:
    if f.dom != g.dom or f.cod != g.cod:
        raise TypeMismatch(
            f"cannot compare {format_object(f.dom)}->{format_object(f.cod)} "
            f"with {format_object(g.dom)}->{format_object(g.cod)}")


def wequal(f: Morphism, g: Morphism) -> bool:
    """Decide whether f and g are one phase class, three independent ways,
    and return the verdict they share; a split raises
    ``CriterionDisagreement``.

    Criterion 1 compares the doubled forms, criterion 2 f(x)f(lower-star),
    criterion 3 the bipartite projectors, each comparing two matrices by the
    semiring's ``approx_equal`` at its default tolerance; this is
    ``wequal_to(f)(g)``."""
    return wequal_to(f)(g)


def wequal_to(f: Morphism, rel: float | None = None):
    """``wequal(f, g)`` at tolerance ``rel``, as a predicate on g.  The types
    are checked first; f's three criterion matrices are computed on the
    first call and kept, g's on every call.  A computation that raises
    keeps nothing, so the next call computes again and raises as ``wequal``
    would."""
    kept = None

    def equal_to_f(g: Morphism) -> bool:
        nonlocal kept
        _same_type(f, g)
        kept = kept or (lift(f), _lowered(f), core.projector_array(f))
        approx_equal = f.semiring.approx_equal
        by_double = approx_equal(kept[0], lift(g), rel)
        by_lower = approx_equal(kept[1], _lowered(g), rel)
        by_projector = approx_equal(kept[2], core.projector_array(g), rel)
        if not by_double == by_lower == by_projector:
            raise CriterionDisagreement(
                f"equality criteria disagree: doubled={by_double} "
                f"lower={by_lower} projector={by_projector}")
        return by_double

    return equal_to_f


def canonical_rep(f: Morphism) -> Morphism:
    """Rotate f by a unit scalar so its largest-modulus entry is real >= 0.

    Ties break at the lowest row-major index.  A pivot below ``_TINY`` (the
    zero morphism's, or a subnormal one) is returned unchanged, since there
    top/|top| is no longer a unit.  Models without phases (identity
    involution, booleans) are already canonical.
    """
    if f.semiring.phase is None or f.array.size == 0:
        return f
    top = f.array.ravel()[_pivot(f.array)]
    if abs(top) < _TINY:
        return f
    phase = top / abs(top)
    return Morphism(f.dom, f.cod, f.array * np.conjugate(phase), f.semiring)


def _pivot(arr: np.ndarray) -> int:
    """Row-major index of the first entry of largest modulus."""
    return int(np.argmax(np.abs(arr).ravel()))


def phase_align(f: Morphism, g: Morphism) -> tuple:
    """Align g to f by one phase: (c, eps, m) with eps = max|g - c.f| and
    m = max|f|, over a tolerant semiring, in work linear in the entries and
    with no arrow.

    The pivot k is ``canonical_rep``'s, and c is g_k / f_k scaled to
    modulus one: z/|z| under conjugation, the sign under the identity
    involution on reals.  When f_k or g_k is zero every unit aligns alike
    and c is one.  Under the identity involution on complex entries a ratio
    off the real line scales to no unit (c c(dagger) = c^2 is not 1); c is
    returned as scaled, for the caller to refuse.  A non-finite f aligns to
    nothing: eps is NaN.
    """
    s = f.semiring
    a, b = f.array.ravel(), g.array.ravel()
    if a.size == 0:
        return s.one, 0.0, 0.0
    k = _pivot(a)
    top, other = a[k], b[k]
    m, n = abs(top), abs(other)
    if not m < np.inf:
        return s.one, float("nan"), float(m)
    # (g_k/|g_k|) / (f_k/|f_k|): a quotient of two units cannot overflow
    c = (other / n) / (top / m) if m and 0 < n < np.inf else s.one
    return c, max_abs(b - c * a), float(m)


def _settled(f: Morphism, g: Morphism, rel: float | None) -> bool | None:
    """The verdict of ``wequal``'s criterion 1, approx_equal(lift(f),
    lift(g), rel), when it is settled without the doubled forms; else None.

    Over an exact semiring g = f settles equal.  Otherwise the doubled
    forms' entries f_a f_a(dagger), one per entry of f, settle unequal when
    they differ from g's, and equal on a 1 x 1 pair, where they are the
    whole doubled forms.  Over booleans that entry is f_a AND f_a = f_a, so
    f (x) f^T = g (x) g^T iff f = g and nothing is left open.

    A 1 x 1 pair over a tolerant semiring is settled in closed form: its
    doubled forms hold the doubled values c c(dagger) and d d(dagger), the
    product ``scalar_value`` forms, and criterion 1 compares the two by
    ``approx_equal``'s rule (``semirings._within``).  A non-finite doubled
    value returns None.

    A larger pair is settled when phase alignment's bounds allow.  With
    (c, eps, m) from ``phase_align``, M_g = max|g|, e = g - c.f and an
    involution that keeps moduli, the doubled forms differ entrywise by
        g_a g_b(dagger) - f_a f_b(dagger)
          = (c c(dagger) - 1) f_a f_b(dagger) + c f_a e_b(dagger)
            + e_a (c f_b)(dagger) + e_a e_b(dagger),
    so for a unit c criterion 1's gap is at most 2 m eps + eps^2.  It
    decides that gap by ``_within`` at the scale S, the larger modulus in
    the two doubled forms, which is max(m, M_g)^2 up to rounding.

    Unequal: the pivot column b = k of the doubled forms is part of that
    gap, and its largest entry L = max_a |g_a g_k(dagger) - f_a f_k(dagger)|
    is a lower bound.  Writing g_k = l c f_k with l = |g_k| / m >= 0, its
    entry at a is m |l g_a - c f_a|, and its entry at k is |1 - l^2| m^2,
    so |1 - l| <= L / m^2.  As eps <= max_a |l g_a - c f_a| + |1 - l| M_g,
    L >= eps m^2 / (m + M_g): the column is read off the alignment.

    Each bound is widened by ``_ROUNDING`` for the rounded products,
    differences and moduli of both computations, and must clear the rule
    by ``ALIGN_MARGIN`` on its side (the upper bound times it within, the
    lower over it outside), so a verdict is settled only where both
    computations give it.  Non-finite entries, a c that is no unit,
    overflow and everything between the two bounds return None.
    """
    s, a, b = f.semiring, f.array, g.array
    if s.exact:
        if (a == b).all():
            return True
        if (a * s.involution(a) != b * s.involution(b)).any():
            return False
        return True if a.size == 1 else None
    if a.shape == (1, 1):
        c, d = a[0, 0], b[0, 0]
        da, db = s.mul(c, s.involution(c)), s.mul(d, s.involution(d))
        # moduli by numpy's kernel, as approx_equal takes them: python's
        # abs of a complex can differ from it in the last bit
        gap, ma, mb = np.abs((da - db, da, db)).tolist()
        finite = ma < math.inf and mb < math.inf
        return _within(gap, max(ma, mb), rel) if finite else None
    c, eps, m = phase_align(f, g)
    if not abs(c * s.involution(c) - 1) <= _ROUNDING:
        return None
    m_g = max_abs(b)
    top = max(m, m_g)
    m2 = top * top
    upper = (2 * m * eps + eps * eps) * (1 + _ROUNDING) + _ROUNDING * m2
    # the doubled forms' entries and their differences must stay finite
    if not upper + 4 * m2 < np.inf:
        return None
    if _within(ALIGN_MARGIN * upper, m2, rel):
        return True
    # m / (m + m_g) <= 1 first: eps m m overflows long before the bound does
    if m and not _within(((eps * (1 - _ROUNDING) - _ROUNDING * m) * (m / (m + m_g))
                          * m - _ROUNDING * m2) / ALIGN_MARGIN, m2, rel):
        return False
    return None


class WProjModel(ModelHandle):
    """The quotient of a base model: its matrices, taken up to phase.

    Scalars of the quotient are the doubled values (nonnegative reals over
    the complex base); the scalar constructor picks the canonical
    nonnegative representative, the square root of the value.
    """

    quotient = True

    def __init__(self, base: ModelHandle):
        if base.quotient:
            # the quotient of a quotient is the quotient itself; do not nest
            raise ValueError("the phase quotient takes a plain base model, "
                             f"not the quotient {base.name}")
        object.__setattr__(self, "name", f"wproj:{base.name}")
        object.__setattr__(self, "semiring", base.semiring)
        self.base = base

    def equal(self, f: Morphism, g: Morphism, rel: float | None = None) -> bool:
        """Criterion 1, approx_equal(lift(f), lift(g), rel): settled without
        the doubled forms when ``_settled`` can, else on them; doubled forms
        that are not finite raise ``NumericRange``."""
        _same_type(f, g)
        verdict = _settled(f, g, rel)
        if verdict is not None:
            return verdict
        doubled_f, doubled_g = lift(f), lift(g)
        if not (np.isfinite(doubled_f).all() and np.isfinite(doubled_g).all()):
            raise NumericRange(f"the doubled forms of {f!r} are not finite")
        return f.semiring.approx_equal(doubled_f, doubled_g, rel)

    def scalar(self, value) -> Morphism:
        r = nonneg_value(value)
        if r is None:
            raise TypeMismatch(f"quotient scalars are nonnegative reals, got {value}")
        return scalar(math.sqrt(r), self.semiring)

    def scalar_value(self, s: Morphism):
        """The doubled value c c(dagger) of the scalar class of c, the one
        product ``lift(s)`` forms, refused unless finite and real (``real_value``)."""
        if not s.is_scalar:
            raise TypeMismatch(f"not a scalar: {s!r}")
        c, sr = s.array[0, 0], s.semiring
        if abs(c) < 2.0 ** 511:                # so |c|^2 < 2^1022 is finite
            v = sr.mul(c, sr.involution(c))
        else:                                  # an overflow is refused below, unwarned
            with np.errstate(over="ignore", invalid="ignore"):
                v = sr.mul(c, sr.involution(c))
        if not cmath.isfinite(v):
            raise NumericRange(f"the doubled value of the scalar {c} is not finite")
        # the semiring's own product as a python number (a bool stays one);
        # a complex one, numpy's included, is read by real_value directly
        r = (real_value(v) if isinstance(v, (complex, np.complexfloating))
             else np.asarray(v).item())
        if r is None:
            raise TypeMismatch("doubled scalar came out non-real: "
                               f"{np.asarray(v).item()}")
        return r

