"""Involutive commutative semirings and their dense matrix kernels.

Three instances ship with the package: complex numbers with conjugation
(``fdhilb``), the boolean semiring with OR/AND (``rel``), and the nonnegative
reals with the identity involution (``weights``).  A semiring carries both the
scalar operations (used to spot-check the laws) and vectorized numpy kernels
(used for all matrix work): matmul, kron, elementwise scaling, conjugation and
a scale-aware approximate equality.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .errors import SemiringLawViolation

ABS_TOL = 1e-12
REL_TOL = 1e-9


def max_abs(arr: np.ndarray) -> float:
    return 0.0 if arr.size == 0 else float(np.abs(arr).max())


@dataclass(frozen=True, eq=False)
class InvolutiveSemiring:
    """Scalar laws plus matrix kernels for one coefficient semiring.

    A semiring declares its scalar operations, its matrix kernels, whether
    equality is ``exact``, and ``phase``: a sampler ``rng -> unit scalar``
    drawing u with u o u(dagger) = 1, or None when the model has no phases
    worth drawing.  ``sample(rng, shape)`` returns a fresh array that the
    caller owns: ``ModelHandle.sample_morphism`` freezes it in place as the
    arrow's matrix instead of copying it.  Everything else the suites
    branch on is derived from ``zero``, ``one`` and ``add`` and set by
    nobody: ``idempotent`` and ``multiples(n)``, and the entrywise-sum
    oracle is ``add`` itself.

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
    approx_equal: Callable[..., bool] = field(default=None)  # set in __post_init__

    def __post_init__(self) -> None:
        if self.approx_equal is None:
            fn = _exact_equal if self.exact else _tolerant_equal
            object.__setattr__(self, "approx_equal", fn)

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


def _tolerant_equal(a: np.ndarray, b: np.ndarray, rel: float | None = None) -> bool:
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    # gap <= max(ABS_TOL, rel * scale) holds whenever gap <= ABS_TOL, so the
    # scale (two more reductions) is read only when that does not settle it
    gap = max_abs(a - b)
    if gap <= ABS_TOL:
        return True
    return gap <= (REL_TOL if rel is None else rel) * max(max_abs(a), max_abs(b))


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
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """re + 1j * im from one draw of both parts: the normals two draws of
    ``shape`` would give, in the same order, so the generator ends where
    those two draws leave it."""
    re, im = rng.standard_normal((2, *shape))
    return re + 1j * im


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
                   phase=None, approx_equal=COMPLEX.approx_equal)


def check_semiring_laws(s: InvolutiveSemiring, rng: np.random.Generator, samples: int = 24) -> None:
    """Spot-check the semiring laws on sampled elements; raise on violation."""
    elems = list(s.sample(rng, (samples,))) + [s.zero, s.one]

    def eq(x, y) -> bool:
        return s.approx_equal(np.asarray([x], dtype=s.dtype), np.asarray([y], dtype=s.dtype))

    def law(ok: bool, text: str, *wit) -> None:
        if not ok:
            raise SemiringLawViolation(f"{text}; witnesses {wit!r}")

    for i, x in enumerate(elems):
        law(eq(s.add(x, s.zero), x), "x + 0 = x", x)
        law(eq(s.mul(x, s.one), x), "x * 1 = x", x)
        law(eq(s.mul(x, s.zero), s.zero), "x * 0 = 0", x)
        law(eq(s.involution(s.involution(x)), x), "involution is involutive", x)
        for j, y in enumerate(elems):
            law(eq(s.add(x, y), s.add(y, x)), "+ commutes", x, y)
            law(eq(s.mul(x, y), s.mul(y, x)), "* commutes", x, y)
            law(eq(s.involution(s.add(x, y)), s.add(s.involution(x), s.involution(y))),
                "involution preserves +", x, y)
            law(eq(s.involution(s.mul(x, y)), s.mul(s.involution(x), s.involution(y))),
                "involution preserves *", x, y)
            if i < 8 and j < 8:
                for z in elems[:8]:
                    law(eq(s.add(s.add(x, y), z), s.add(x, s.add(y, z))), "+ associates", x, y, z)
                    law(eq(s.mul(s.mul(x, y), z), s.mul(x, s.mul(y, z))), "* associates", x, y, z)
                    law(eq(s.mul(x, s.add(y, z)), s.add(s.mul(x, y), s.mul(x, z))),
                        "* distributes over +", x, y, z)
