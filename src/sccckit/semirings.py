"""Involutive commutative semirings and their dense matrix kernels.

Three instances ship with the package: complex numbers with conjugation
(``fdhilb``), the boolean semiring with OR/AND (``rel``), and the nonnegative
reals with the identity involution (``weights``).  A semiring carries both the
scalar operations (used to spot-check the laws) and vectorized numpy kernels
(used for all matrix work): matmul, kron, elementwise scaling, conjugation and
a scale-aware approximate equality.  ``exact`` alone decides how values
compare: entry by entry in the law spot checks, whole arrays for arrows, and
one array against a stack of arrays (``equal_to_each``, the batched
``approx_equal`` that exhaustive grids decide with).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
from typing import Any, Callable

import numpy as np

from .errors import SemiringLawViolation

ABS_TOL = 1e-12
REL_TOL = 1e-9
# how far a value read off complex kernels may stray from the reals, relative
# to max(1, |v|): its rounding residual grows with its magnitude
REAL_TOL = 1e-9
# the largest entry below which a sampled arrow is skipped as degenerate: its
# doubled form holds products of two entries, about ABS_TOL, so no weight shows
NEGLIGIBLE = 1e-6
# the factor by which phase alignment's bounds must clear a quotient threshold
# to settle a verdict; the rounding they leave out needs less than 1 + 1e-14
ALIGN_MARGIN = 4.0


def max_abs(arr: np.ndarray) -> float:
    # the ufunc reduction skips ``ndarray.max``'s Python wrapper; a NaN
    # propagates, so a NaN gap is never within tolerance
    return 0.0 if arr.size == 0 else float(np.maximum.reduce(np.abs(arr), axis=None))


def negligible(arr: np.ndarray) -> bool:
    """Whether every entry of arr is below ``NEGLIGIBLE`` in magnitude."""
    return max_abs(arr) < NEGLIGIBLE


def real_value(v) -> float | None:
    """v as a float when it is real, else None.

    A real value computed in complex arithmetic keeps a rounding residual in
    its imaginary part, so v counts as real unless that part exceeds
    ``REAL_TOL`` * max(1, |v|) or is infinite.  A python float is real as
    it is and comes back unconverted, and a zero imaginary part is read
    without the bound.
    """
    if type(v) is float:
        return v
    v = complex(v)
    if v.imag and (abs(v.imag) > REAL_TOL * max(1.0, abs(v)) or math.isinf(v.imag)):
        return None
    return v.real


def nonneg_value(v) -> float | None:
    """v as a float clamped at 0 when it is real (``real_value``) and not
    below -``REAL_TOL``, else None."""
    r = real_value(v)
    return None if r is None or r < -REAL_TOL else max(r, 0.0)


@dataclass(frozen=True, eq=False)
class InvolutiveSemiring:
    """Scalar laws plus matrix kernels for one coefficient semiring.

    A semiring declares its scalar operations, its matrix kernels, whether
    equality is ``exact``, and ``phase``: a sampler ``rng -> unit scalar``
    drawing u with u o u(dagger) = 1, or None when the model has no phases
    worth drawing.  ``exact`` is the only equality contract: it picks both
    ``entrywise_equal`` (the law spot checks) and ``approx_equal`` (arrows).
    ``sample(rng, shape)`` returns a fresh array that the caller owns:
    ``ModelHandle.sample_morphism`` freezes it in place as the arrow's
    matrix instead of copying it.  Everything else the suites branch on is
    derived from ``zero``, ``one`` and ``add`` and set by nobody:
    ``idempotent`` and ``multiples(n)``, and the entrywise-sum oracle is
    ``add`` itself.

    Semirings compare and hash by identity, as every operation that mixes
    morphisms already checks (``f.semiring is g.semiring``): a copy made with
    ``replace`` is another semiring, and the memoized structure maps keyed on
    a semiring never hand one semiring's morphisms to another's caller.  For
    the same reason ``copy``, ``deepcopy`` and ``pickle`` keep the identity.
    """

    name: str
    dtype: Any
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    involution: Callable[[Any], Any]          # works elementwise on arrays too
    matmul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kron: Callable[[np.ndarray, np.ndarray], np.ndarray]
    scale: Callable[[Any, np.ndarray], np.ndarray]
    sample: Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]
    exact: bool = False                       # exact equality instead of tolerances
    phase: Callable[[np.random.Generator], Any] | None = None

    @cached_property
    def approx_equal(self) -> Callable[..., bool]:
        """Whole-array equality of two matrices, as ``morphisms.equal`` asks it."""
        return _exact_equal if self.exact else _tolerant_equal

    def entrywise_equal(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-entry verdicts of two same-shape arrays of ``dtype``.

        Entry k reads what ``approx_equal`` decides on the one-entry arrays
        ``a[k:k+1]`` and ``b[k:k+1]``: ``a == b`` when ``exact``, else a gap
        within ``ABS_TOL`` or within ``REL_TOL`` times the larger magnitude
        of that entry alone, never a scale shared across entries; an
        infinite gap is never within it.
        """
        if self.exact:
            return a == b
        gap, ma, mb = np.abs(a - b), np.abs(a), np.abs(b)
        # python's max(ma, mb), NaN included, as _tolerant_equal reads it
        return _within(gap, np.where(mb > ma, mb, ma), None)

    def equal_to_each(self, a: np.ndarray, stack: np.ndarray,
                      rel: float | None = None) -> np.ndarray:
        """``approx_equal`` of a against every array of a stack, in one pass.

        Entry j of the result is ``approx_equal(a, stack[j], rel)``: over
        all entries ``a == stack[j]`` when ``exact``, else the gap
        max|a - stack[j]| within ``ABS_TOL``, or within ``rel`` (default
        ``REL_TOL``) times python's ``max`` of the two arrays' largest
        magnitudes.  A NaN or infinite gap decides False, as in ``_tolerant_equal``.
        """
        k = len(stack)
        if stack.shape[1:] != a.shape:
            return np.zeros(k, dtype=bool)
        axes = tuple(range(1, stack.ndim))
        if self.exact:
            return (a == stack).all(axis=axes)
        if a.size == 0:
            return np.ones(k, dtype=bool)
        gap = np.abs(a - stack).max(axis=axes)
        ma, mb = max_abs(a), np.abs(stack).max(axis=axes)
        # python's 0.0 * inf is a silent NaN; numpy's warns
        with np.errstate(invalid="ignore"):
            return _within(gap, np.where(mb > ma, mb, ma), rel)

    @cached_property
    def idempotent(self) -> bool:
        """1 + 1 = 1, so x + x = x for every x."""
        return self.add(self.one, self.one) == self.one

    def __reduce__(self):
        # a reference, never a copy: ``copy``/``deepcopy`` hand back the
        # semiring itself, and ``pickle`` stores the shipped ones by their
        # module name (one built elsewhere has no name and does not pickle)
        return next((k for k, v in globals().items() if v is self), self.name)

    def multiples(self, n: int) -> list:
        """0, 1, 1 + 1, ... up to n elements, stopping at the first repeat."""
        out = [self.zero]
        while len(out) < n:
            nxt = self.add(out[-1], self.one)
            if nxt in out:
                break
            out.append(nxt)
        return out


def _within(gap, scale, rel: float | None):
    """The tolerant rule, on python floats or entrywise on arrays: gap
    within ``ABS_TOL``, or finite and within rel (default ``REL_TOL``) times
    scale, the larger magnitude compared."""
    # rel * inf, the scale beside an infinite entry, would accept its infinite gap
    return (gap <= ABS_TOL) | ((gap < np.inf)
                               & (gap <= (REL_TOL if rel is None else rel) * scale))


def _tolerant_equal(a: np.ndarray, b: np.ndarray, rel: float | None = None) -> bool:
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    # the rule holds whenever gap <= ABS_TOL, so the scale (two more
    # reductions) is read only when that does not settle it
    gap = max_abs(a - b)
    return gap <= ABS_TOL or _within(gap, max(max_abs(a), max_abs(b)), rel)


def _exact_equal(a: np.ndarray, b: np.ndarray, rel: float | None = None) -> bool:
    return a.shape == b.shape and bool((a == b).all())


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices as one broadcast product.

    Each entry is the single product a[i, j] * b[k, l] that ``np.kron`` also
    forms, so results are bit-identical; over booleans ``*`` is AND.  It
    skips ``np.kron``'s general n-d wrapper, which dominates at small sizes.
    """
    m, n = a.shape
    p, q = b.shape
    # a C-ordered product reshapes as a view; the default order follows the
    # operands, and a transposed operand (a dagger's) then forces a copy
    return np.multiply(a[:, None, :, None], b[None, :, None, :],
                       order="C").reshape(m * p, n * q)


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """re + 1j * im from one draw of both parts: the normals two draws of
    ``shape`` would give, in the same order, so the generator ends where
    those two draws leave it.  The parts are written into one complex array
    in place, which gives the bits of ``re + 1j * im`` without its
    temporaries."""
    parts = rng.standard_normal((2, *shape))
    out = np.empty(shape, np.complex128)
    out.real = parts[0]
    out.imag = parts[1]
    return out


COMPLEX = InvolutiveSemiring(
    name="complex",
    dtype=np.complex128,
    zero=complex(0),
    one=complex(1),
    add=lambda x, y: x + y,
    mul=lambda x, y: x * y,
    involution=np.conjugate,
    matmul=np.matmul,
    kron=_kron,
    scale=lambda c, arr: c * arr,
    sample=_complex_normal,
    phase=lambda rng: np.exp(2j * np.pi * rng.random()),
)

BOOLEAN = InvolutiveSemiring(
    name="boolean",
    dtype=np.bool_,
    zero=False,
    one=True,
    add=lambda x, y: bool(x) or bool(y),
    mul=lambda x, y: bool(x) and bool(y),
    involution=lambda x: x,
    matmul=np.matmul,  # on bool_ arrays an OR of ANDs, with no counter to wrap
    kron=_kron,
    scale=lambda c, arr: np.logical_and(bool(c), arr),
    sample=lambda rng, shape: rng.random(shape) < 0.5,
    exact=True,
)

NONNEG = InvolutiveSemiring(
    name="nonneg",
    dtype=np.float64,
    zero=0.0,
    one=1.0,
    add=lambda x, y: x + y,
    mul=lambda x, y: x * y,
    involution=lambda x: x,
    matmul=np.matmul,
    kron=_kron,
    scale=lambda c, arr: c * arr,
    sample=lambda rng, shape: rng.random(shape),
)


def corrupted_complex() -> InvolutiveSemiring:
    """Complex semiring with the involution deliberately broken (identity).

    The scalar laws still hold, so this passes ``check_semiring_laws`` but
    breaks adjoint-dependent coherence; used as a negative control.  It has
    no phases: under the identity involution u o u(dagger) = u^2, not 1.
    """
    return replace(COMPLEX, name="complex-corrupted-involution", involution=lambda x: +x,
                   phase=None)


def _laws(s: InvolutiveSemiring, elems: list):
    """Every spot-checked law as (left side, right side, text, witnesses)."""
    add, mul, inv, zero, one = s.add, s.mul, s.involution, s.zero, s.one
    for i, x in enumerate(elems):
        yield add(x, zero), x, "x + 0 = x", (x,)
        yield mul(x, one), x, "x * 1 = x", (x,)
        yield mul(x, zero), zero, "x * 0 = 0", (x,)
        yield inv(inv(x)), x, "involution is involutive", (x,)
        for j, y in enumerate(elems):
            yield add(x, y), add(y, x), "+ commutes", (x, y)
            yield mul(x, y), mul(y, x), "* commutes", (x, y)
            yield inv(add(x, y)), add(inv(x), inv(y)), "involution preserves +", (x, y)
            yield inv(mul(x, y)), mul(inv(x), inv(y)), "involution preserves *", (x, y)
            if i < 8 and j < 8:
                for z in elems[:8]:
                    yield add(add(x, y), z), add(x, add(y, z)), "+ associates", (x, y, z)
                    yield mul(mul(x, y), z), mul(x, mul(y, z)), "* associates", (x, y, z)
                    yield (mul(x, add(y, z)), add(mul(x, y), mul(x, z)),
                           "* distributes over +", (x, y, z))


def check_semiring_laws(s: InvolutiveSemiring, rng: np.random.Generator, samples: int = 24) -> int:
    """Spot-check the semiring laws on sampled elements; return how many.

    The elements are ``samples`` draws of ``s.sample`` plus zero and one.
    Unit, zero, involution and the commutations and involution laws are
    checked on every element or pair, associativity and distributivity on
    every triple of the first eight: 4,344 laws at the default 24 samples.
    Both sides of every law are computed with the scalar ``add``, ``mul``
    and ``involution``, then cast to ``dtype`` and decided in one
    ``entrywise_equal`` pass, so a tolerant semiring scales each law by its
    own magnitudes.  The first law that fails, in the order above, raises
    ``SemiringLawViolation`` naming it and its witnesses.
    """
    elems = list(s.sample(rng, (samples,))) + [s.zero, s.one]
    # both sides of each law, interleaved and cast as they come, so no
    # python value outlives its law
    sides = np.fromiter((v for law in _laws(s, elems) for v in law[:2]), dtype=s.dtype)
    ok = s.entrywise_equal(sides[0::2], sides[1::2])
    if not ok.all():
        # text and witnesses depend only on the position and the elements
        _, _, text, wit = next(islice(_laws(s, elems), int(np.argmin(ok)), None))
        raise SemiringLawViolation(f"{text}; witnesses {wit!r}")
    return ok.size
