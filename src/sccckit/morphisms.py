"""Typed dense matrices over an involutive semiring.

A morphism f: A -> B is stored as a dim(B) x dim(A) array over its semiring.
Basis conventions, fixed once and used everywhere:

* tensor bases are ordered lexicographically with the left factor major, so
  the matrix of f (x) g is the Kronecker product kron(f, g);
* direct-sum bases list the left block first, then the right block;
* vectors are columns, effects are rows, scalars are 1 x 1.

Objects attached to a morphism are always kept in normal form, so a dual
appears only as a flagged generator and type equality is plain structural
equality of the stored expressions.

``Morphism`` is a frozen dataclass with ``__slots__``: an arrow is four
fields and no instance dict, and assigning a field raises
``FrozenInstanceError``.  The public ``Morphism(...)`` constructor (and
``dataclasses.replace``) normalizes both ends, copies the array into the
semiring's dtype, checks its shape and freezes it.  The results of
``compose``, ``tensor``, ``dagger``, ``star``, ``lower_star``,
``direct_sum`` and ``scalar`` take a trusted internal path instead
(``_derived``): their ends are built from ends already in normal form (the
dual ends by ``objects.dual``) and their arrays are fresh kernel outputs, a
fresh 1 x 1 array of the semiring's dtype with its one entry set in place,
or a transposed view of a frozen array (``star``, and a phase-free
``dagger``), so it skips the re-normalization and the copy and fills the
four slots directly.  It still coerces the array to the
semiring's dtype and checks the shape the operands imply (``kernel_array``,
a guard for user semirings whose kernels misbehave), and freezes the
array.  ``adopt`` is the public constructor minus the copy, for an array
its caller has just built.
A copy, deep copy or unpickled morphism is rebuilt by the public
constructor, so its array is frozen too.

``identity`` is memoized per (object, semiring), like the structure maps of
``core`` and ``ortho``: its result is a function of those hashable,
immutable arguments alone and its array is frozen, so a shared result is
indistinguishable from a fresh one.  Semirings hash by identity, so two
semirings never share an entry.  Its array, and that of every other
identity-matrix structure map, is the one frozen ``eye(n, s)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TypeMismatch
from .objects import (ObjectExpr, Oplus, Tensor, UNIT, dim, dual, format_object,
                      normalize)
from .semirings import InvolutiveSemiring, max_abs


@dataclass(frozen=True, eq=False, slots=True)
class Morphism:
    dom: ObjectExpr
    cod: ObjectExpr
    array: np.ndarray
    semiring: InvolutiveSemiring

    def __post_init__(self) -> None:
        object.__setattr__(self, "dom", normalize(self.dom))
        object.__setattr__(self, "cod", normalize(self.cod))
        arr = np.array(self.array, dtype=self.semiring.dtype)
        expected = (dim(self.cod), dim(self.dom))
        if arr.shape != expected:
            raise TypeMismatch(
                f"array shape {arr.shape} does not match cod x dom {expected}")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    def __reduce__(self):
        return Morphism, (self.dom, self.cod, self.array, self.semiring)

    def __repr__(self) -> str:
        return (f"Morphism({format_object(self.dom)} -> {format_object(self.cod)}, "
                f"{self.semiring.name})")

    @property
    def is_scalar(self) -> bool:
        return self.array.shape == (1, 1)


# the slot setters, which bypass the frozen ``__setattr__`` (see ``_derived``)
_SET_DOM, _SET_COD, _SET_ARRAY, _SET_SEMIRING = (
    vars(Morphism)[field].__set__ for field in ("dom", "cod", "array", "semiring"))


def kernel_array(array, s: InvolutiveSemiring, shape: tuple[int, int]) -> np.ndarray:
    """A kernel's output coerced to ``s.dtype`` and checked against the shape
    its operands imply: the guard for user semirings whose kernels misbehave,
    run on every arrow ``_derived`` builds and on every plain-matrix
    intermediate of ``core.name_array`` and ``wproj.wequal``."""
    arr = np.asarray(array, dtype=s.dtype)
    if arr.shape != shape:
        raise TypeMismatch(
            f"{s.name} kernel returned shape {arr.shape}, expected {shape}")
    return arr


def _derived(dom: ObjectExpr, cod: ObjectExpr, array, s: InvolutiveSemiring,
             shape: tuple[int, int]) -> Morphism:
    """Trusted constructor: ends already normal, array fresh (see module doc)."""
    arr = kernel_array(array, s, shape)
    arr.setflags(write=False)
    f = object.__new__(Morphism)
    _SET_DOM(f, dom)
    _SET_COD(f, cod)
    _SET_ARRAY(f, arr)
    _SET_SEMIRING(f, s)
    return f


def adopt(dom: ObjectExpr, cod: ObjectExpr, array, s: InvolutiveSemiring) -> Morphism:
    """``Morphism(...)`` for an array the caller has just built and hands over.

    Every check of the public constructor runs (ends normalized, dtype
    coerced, shape checked, array frozen) except the defensive copy, which
    only guards arrays someone else still holds.
    """
    dom, cod = normalize(dom), normalize(cod)
    return _derived(dom, cod, array, s, (dim(cod), dim(dom)))


def morphism(dom: ObjectExpr, cod: ObjectExpr, array, semiring: InvolutiveSemiring) -> Morphism:
    return Morphism(dom, cod, array, semiring)


@lru_cache(maxsize=4096)
def eye(n: int, s: InvolutiveSemiring) -> np.ndarray:
    """The frozen n x n identity array over s, shared by every memoized map
    whose matrix it is, so their bytes grow with the dimensions, not the objects."""
    arr = np.eye(n, dtype=s.dtype)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=4096)
def identity(a: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    return adopt(a, a, eye(dim(a), s), s)


def zeros(a: ObjectExpr, b: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """The all-zeros morphism a -> b (plain constructor, no diagram)."""
    return Morphism(a, b, np.zeros((dim(b), dim(a)), dtype=s.dtype), s)


def scalar(value, s: InvolutiveSemiring) -> Morphism:
    """The 1 x 1 morphism I -> I whose one entry is value, cast to ``s.dtype``;
    a value of more than one entry does not broadcast and is refused."""
    arr = np.empty((1, 1), dtype=s.dtype)
    arr[...] = value
    return _derived(UNIT, UNIT, arr, s, (1, 1))


def scalar_value(f: Morphism):
    """The single entry of a scalar, as a python value."""
    if not f.is_scalar:
        raise TypeMismatch(f"not a scalar: {f!r}")
    return f.array[0, 0].item()


def equal(f: Morphism, g: Morphism, rel: float | None = None) -> bool:
    """Typed equality: same normal-form ends and entrywise agreement.

    The numeric threshold is max(1e-12, rel * largest entry magnitude) with
    rel defaulting to 1e-9; the boolean model compares exactly.
    """
    if f.dom != g.dom or f.cod != g.cod:
        return False
    return f.semiring.approx_equal(f.array, g.array, rel)


def distance(f: Morphism, g: Morphism) -> float:
    """Largest entrywise deviation (inf if the types differ)."""
    if f.dom != g.dom or f.cod != g.cod:
        return float("inf")
    if f.array.size == 0:
        return 0.0
    a = f.array.astype(np.complex128) if f.semiring.exact else f.array
    b = g.array.astype(np.complex128) if g.semiring.exact else g.array
    return max_abs(a - b)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if f.semiring is not g.semiring:
        raise TypeMismatch("cannot compose morphisms over different semirings")
    if f.cod != g.dom:
        raise TypeMismatch(
            f"cannot compose: {format_object(f.cod)} != {format_object(g.dom)}")
    return _derived(f.dom, g.cod, g.semiring.matmul(g.array, f.array), f.semiring,
                    (g.array.shape[0], f.array.shape[1]))


def tensor(f: Morphism, g: Morphism) -> Morphism:
    if f.semiring is not g.semiring:
        raise TypeMismatch("cannot tensor morphisms over different semirings")
    (m, n), (p, q) = f.array.shape, g.array.shape
    return _derived(Tensor(f.dom, g.dom), Tensor(f.cod, g.cod),
                    f.semiring.kron(f.array, g.array), f.semiring, (m * p, n * q))


def dagger(f: Morphism) -> Morphism:
    """Adjoint: conjugate transpose, swapping the ends."""
    return _derived(f.cod, f.dom, f.semiring.involution(f.array.T), f.semiring,
                    f.array.shape[::-1])


def star(f: Morphism) -> Morphism:
    """Contravariant transpose f*: B* -> A* (no conjugation)."""
    return _derived(dual(f.cod), dual(f.dom), f.array.T, f.semiring, f.array.shape[::-1])


def lower_star(f: Morphism) -> Morphism:
    """Covariant entrywise conjugate f_*: A* -> B*."""
    return _derived(dual(f.dom), dual(f.cod), f.semiring.involution(f.array), f.semiring,
                    f.array.shape)


def direct_sum(f: Morphism, g: Morphism) -> Morphism:
    """Block-diagonal sum f (+) g; zero-dimensional blocks are fine."""
    if f.semiring is not g.semiring:
        raise TypeMismatch("cannot direct-sum morphisms over different semirings")
    s = f.semiring
    fa, ga = f.array, g.array
    arr = np.zeros((fa.shape[0] + ga.shape[0], fa.shape[1] + ga.shape[1]), dtype=s.dtype)
    arr[: fa.shape[0], : fa.shape[1]] = fa
    arr[fa.shape[0]:, fa.shape[1]:] = ga
    return _derived(Oplus(f.dom, g.dom), Oplus(f.cod, g.cod), arr, s, arr.shape)
