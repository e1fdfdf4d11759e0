"""Ortho-structure: a second, partial monoidal product (+) with a zero object.

The direct sum is block-diagonal on matrices.  Everything the theory derives
from it is built diagrammatically here and only then compared against the
plain matrix constructions in the tests:

* zero morphisms factor through the zero object via the empty unit,
* pseudo-projections/injections arise from unitors and zero maps,
* the distributivity isomorphisms DIST are explicit permutations,
* binary sums of parallel morphisms come out of the two-dimensional unit
  eta_2: I -> 2* @ 2 with 2 := I + I, executed as a composite.

Monoidal naturality of the coherence family is verified on random samples
(DIST unitarity and naturality squares); the remaining coherence diagrams are
not separately tested.

The unitors, symmetry, associator, DIST, ``zero_collapse``,
``zero_morphism``, ``_spread``, the pseudo-projections and -injections, and
the two legs of ``derived_sum`` around 1 (x) (f + g) are canonical once
their objects are fixed, so each is memoized per (objects, semiring) in one
bounded cache, as in ``core`` and for the same reason: it takes no array,
checks nothing and returns a frozen morphism, built from the primitives.
``derived_sum`` applies its operands' arrays afresh on every call.
``pseudo_projection`` and ``pseudo_injection`` stay plain functions that
delegate to cached helpers, so their calls can still be counted.
``pairing``, ``copairing`` and ``random_unitary`` build arrows into and
out of a block sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TypeMismatch
from .morphisms import (Morphism, adopt, compose, dagger, direct_sum, distance,
                        eye, identity, scalar, tensor)
from .objects import (Gen, ObjectExpr, Oplus, Tensor, UNIT, ZERO, dim,
                      format_object, normalize)
from .semirings import COMPLEX, InvolutiveSemiring
from .core import alpha, counit, double, lam, lam_inv, unit

oplus = direct_sum


@dataclass(frozen=True)
class OplusDecomposition:
    """An object presented as a left-associated direct sum of parts."""

    parts: tuple[ObjectExpr, ...]
    whole: ObjectExpr

    @staticmethod
    def from_parts(parts) -> "OplusDecomposition":
        parts = tuple(normalize(p) for p in parts)
        if not parts:
            raise TypeMismatch("a decomposition needs at least one part")
        whole = parts[0]
        for p in parts[1:]:
            whole = Oplus(whole, p)
        return OplusDecomposition(parts, whole)

    def __len__(self) -> int:
        return len(self.parts)


def decomposition(*parts: ObjectExpr) -> OplusDecomposition:
    return OplusDecomposition.from_parts(parts)


# -- oplus-side unitors, symmetry, associator -------------------------------

@lru_cache(maxsize=4096)
def l_unitor(a: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """A -> 0 + A."""
    return adopt(a, Oplus(ZERO, a), eye(dim(a), s), s)


@lru_cache(maxsize=4096)
def r_unitor(a: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """A -> A + 0."""
    return adopt(a, Oplus(a, ZERO), eye(dim(a), s), s)


@lru_cache(maxsize=4096)
def oplus_symmetry(a: ObjectExpr, b: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """A + B -> B + A, swapping the blocks."""
    da, db = dim(a), dim(b)
    arr = np.zeros((da + db, da + db), dtype=s.dtype)
    arr[db:, :da] = np.eye(da, dtype=s.dtype)
    arr[:db, da:] = np.eye(db, dtype=s.dtype)
    return adopt(Oplus(a, b), Oplus(b, a), arr, s)


@lru_cache(maxsize=4096)
def oplus_assoc(a: ObjectExpr, b: ObjectExpr, c: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """A + (B + C) -> (A + B) + C (identity matrix, retyped ends)."""
    n = dim(a) + dim(b) + dim(c)
    return adopt(Oplus(a, Oplus(b, c)), Oplus(Oplus(a, b), c), eye(n, s), s)


# -- distributivity ----------------------------------------------------------

@lru_cache(maxsize=4096)
def dist_left(a: ObjectExpr, b: ObjectExpr, c: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """A @ (B + C) -> (A @ B) + (A @ C), an explicit permutation."""
    da, db, dc = dim(a), dim(b), dim(c)
    n = da * (db + dc)
    arr = np.zeros((n, n), dtype=s.dtype)
    cols = np.arange(n)
    i, x = divmod(cols, db + dc)
    rows = np.where(x < db, i * db + x, da * db + i * dc + (x - db))
    arr[rows, cols] = s.one
    return adopt(Tensor(a, Oplus(b, c)), Oplus(Tensor(a, b), Tensor(a, c)), arr, s)


@lru_cache(maxsize=4096)
def dist_right(b: ObjectExpr, c: ObjectExpr, a: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """(B + C) @ A -> (B @ A) + (C @ A), an explicit permutation."""
    da, db, dc = dim(a), dim(b), dim(c)
    n = (db + dc) * da
    arr = np.zeros((n, n), dtype=s.dtype)
    cols = np.arange(n)
    x, k = divmod(cols, da)
    rows = np.where(x < db, x * da + k, db * da + (x - db) * da + k)
    arr[rows, cols] = s.one
    return adopt(Tensor(Oplus(b, c), a), Oplus(Tensor(b, a), Tensor(c, a)), arr, s)


@lru_cache(maxsize=4096)
def zero_collapse(a: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """The unique isomorphism a -> 0 for a zero-dimensional object."""
    if dim(a) != 0:
        raise TypeMismatch(f"{format_object(a)} has positive dimension")
    return adopt(a, ZERO, np.zeros((0, 0), dtype=s.dtype), s)


# -- zero morphisms through the zero object ----------------------------------

@lru_cache(maxsize=4096)
def zero_morphism(a: ObjectExpr, b: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """0_{A,B}: A -> B built by factoring through the zero object.

    The composite runs A -> I @ A -> (0* @ 0) @ A -> 0 -> (0* @ 0) @ B ->
    I @ B -> B, every leg an actual (possibly empty) matrix.
    """
    eta0 = unit(ZERO, s)
    down = compose(tensor(eta0, identity(a, s)), lam(a, s))
    down = compose(zero_collapse(Tensor(Tensor(ZERO, ZERO), a), s), down)
    up = dagger(compose(zero_collapse(Tensor(Tensor(ZERO, ZERO), b), s),
                        compose(tensor(eta0, identity(b, s)), lam(b, s))))
    return compose(up, down)


# -- pseudo-projections and injections ---------------------------------------

def _proj_left(a: ObjectExpr, b: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """p over the first block: A + B -> A, as r(dagger) o (1 + 0)."""
    return compose(dagger(r_unitor(a, s)),
                   oplus(identity(a, s), zero_morphism(b, ZERO, s)))


def _proj_right(a: ObjectExpr, b: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """p over the second block: A + B -> B, as l(dagger) o (0 + 1)."""
    return compose(dagger(l_unitor(b, s)),
                   oplus(zero_morphism(a, ZERO, s), identity(b, s)))


def _inj_left(a: ObjectExpr, b: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """q into the first block: A -> A + B, as (1 + 0) o r."""
    return compose(oplus(identity(a, s), zero_morphism(ZERO, b, s)), r_unitor(a, s))


def _inj_right(a: ObjectExpr, b: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """q into the second block: B -> A + B, as (0 + 1) o l."""
    return compose(oplus(zero_morphism(ZERO, a, s), identity(b, s)), l_unitor(b, s))


def pseudo_projection(decomp: OplusDecomposition, i: int, s: InvolutiveSemiring) -> Morphism:
    """p_i: whole -> parts[i], built from the binary composites."""
    return _pseudo_projection(decomp, i, s)


@lru_cache(maxsize=4096)
def _pseudo_projection(decomp: OplusDecomposition, i: int,
                       s: InvolutiveSemiring) -> Morphism:
    return _block_map(decomp, i, s, _proj_right, lambda left, last: compose(
        _pseudo_projection(left, i, s), _proj_left(left.whole, last, s)))


def pseudo_injection(decomp: OplusDecomposition, i: int, s: InvolutiveSemiring) -> Morphism:
    """q_i: parts[i] -> whole, built from the binary composites."""
    return _pseudo_injection(decomp, i, s)


@lru_cache(maxsize=4096)
def _pseudo_injection(decomp: OplusDecomposition, i: int,
                      s: InvolutiveSemiring) -> Morphism:
    return _block_map(decomp, i, s, _inj_right, lambda left, last: compose(
        _inj_left(left.whole, last, s), _pseudo_injection(left, i, s)))


def _block_map(decomp: OplusDecomposition, i: int, s: InvolutiveSemiring,
               at_last, earlier) -> Morphism:
    """The recursion p_i and q_i share: the identity on one part, else the
    last part split off, ``at_last`` its block's map and ``earlier`` the rest's."""
    n = len(decomp)
    if not 0 <= i < n:
        raise IndexError(f"block index {i} out of range for {n} parts")
    if n == 1:
        return identity(decomp.parts[0], s)
    left = OplusDecomposition.from_parts(decomp.parts[:-1])
    if i == n - 1:
        return at_last(left.whole, decomp.parts[-1], s)
    return earlier(left, decomp.parts[-1])


def pseudo_component(f: Morphism, dom_decomp: OplusDecomposition,
                     cod_decomp: OplusDecomposition, i: int, j: int) -> Morphism:
    """f_ij := p_j o f o q_i, the block of f from dom part i to cod part j."""
    if f.dom != dom_decomp.whole or f.cod != cod_decomp.whole:
        raise TypeMismatch("decompositions do not match the morphism ends")
    s = f.semiring
    return compose(pseudo_projection(cod_decomp, j, s),
                   compose(f, pseudo_injection(dom_decomp, i, s)))


# -- the derived sum ----------------------------------------------------------

@lru_cache(maxsize=4096)
def _spread(a: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """(I + I) @ A -> A + A via DIST and the left unitors."""
    return compose(oplus(lam_inv(a, s), lam_inv(a, s)),
                   dist_right(UNIT, UNIT, a, s))


TWO = Oplus(UNIT, UNIT)  # 2 := I + I, its own dual after normalization


@lru_cache(maxsize=4096)
def _sum_down(a: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """A -> I @ A -> (2* @ 2) @ A -> 2* @ (2 @ A) -> 2* @ (A + A)."""
    down = compose(tensor(unit(TWO, s), identity(a, s)), lam(a, s))
    down = compose(dagger(alpha(TWO, TWO, a, s)), down)
    return compose(tensor(identity(TWO, s), _spread(a, s)), down)


@lru_cache(maxsize=4096)
def _sum_up(b: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """2* @ (B + B) -> 2* @ (2 @ B) -> (2* @ 2) @ B -> I @ B -> B."""
    up = compose(alpha(TWO, TWO, b, s), tensor(identity(TWO, s), dagger(_spread(b, s))))
    up = compose(tensor(counit(TWO, s), identity(b, s)), up)
    return compose(lam_inv(b, s), up)


def derived_sum(f: Morphism, g: Morphism) -> Morphism:
    """The sum of parallel morphisms induced by the two-dimensional unit.

    The composite through 2 := I + I:
    A -> I @ A -> (2* @ 2) @ A -> 2* @ (A + A) -> 2* @ (B + B) ->
    (2* @ 2) @ B -> I @ B -> B with the middle leg 1 (x) (f + g).  The legs
    before and after it read no array and are memoized, so a call runs
    f + g, one tensor and two composes.  In every matrix model the result is
    the entrywise semiring sum.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise TypeMismatch("derived sum needs parallel morphisms")
    if f.semiring is not g.semiring:
        raise TypeMismatch("derived sum needs a common semiring")
    s = f.semiring
    mid = compose(tensor(identity(TWO, s), oplus(f, g)), _sum_down(f.dom, s))
    return compose(_sum_up(f.cod, s), mid)


# -- random unitaries ---------------------------------------------------------

def random_unitary(m, dims, seed) -> Morphism:
    """A seeded Haar-ish unitary A -> (+)_i A_i with dim(A_i) = dims[i].

    The Q factor of numpy's Householder QR of one seeded (n, n) sample,
    which is unitary for every sample, degenerate or not.  Only defined
    over a complex semiring with phases, such as fdhilb's.
    """
    if m.semiring.phase is None:
        raise TypeMismatch("random unitaries are sampled over a semiring with phases")
    dims = list(dims)
    total = sum(dims)
    if total < 1 or any(d < 0 for d in dims):
        raise TypeMismatch(f"bad block dimensions {dims}")
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(m.semiring.sample(rng, (total, total)))[0]
    parts = [ZERO if d == 0 else (UNIT if d == 1 else Gen(f"A{i}", d))
             for i, d in enumerate(dims)]
    cod = OplusDecomposition.from_parts(parts).whole
    dom = UNIT if total == 1 else Gen("A", total)
    return Morphism(dom, cod, q, m.semiring)


# -- biproduct pairing --------------------------------------------------------

def pairing(fs) -> Morphism:
    """<f_1, ..., f_n>: C -> (+)_i A_i, stacking the blocks."""
    fs = list(fs)
    if not fs:
        raise TypeMismatch("pairing needs at least one component")
    dom = fs[0].dom
    s = fs[0].semiring
    for f in fs:
        if f.dom != dom or f.semiring is not s:
            raise TypeMismatch("pairing components must share their domain")
    cod = OplusDecomposition.from_parts([f.cod for f in fs]).whole
    return Morphism(dom, cod, np.vstack([f.array for f in fs]), s)


def copairing(fs) -> Morphism:
    """[f_1, ..., f_n]: (+)_i A_i -> C, the dagger-dual of pairing."""
    fs = list(fs)
    if not fs:
        raise TypeMismatch("copairing needs at least one component")
    cod = fs[0].cod
    s = fs[0].semiring
    for f in fs:
        if f.cod != cod or f.semiring is not s:
            raise TypeMismatch("copairing components must share their codomain")
    dom = OplusDecomposition.from_parts([f.dom for f in fs]).whole
    return Morphism(dom, cod, np.hstack([f.array for f in fs]), s)


def oplus_illdefined_witness(theta: float = np.pi / 2) -> dict:
    """The phase counterexample showing (+) does not descend to phase classes.

    With u := e^{i theta} at theta = pi/2: double(<1, u>) differs from
    double(<1, 1>) and double(1 (+) u) differs from double(1 (+) 1), each by
    entries of magnitude sqrt(2); the theta = 0 control keeps both pairs equal.
    """
    s = COMPLEX
    one = scalar(s.one, s)
    u = scalar(np.exp(1j * theta), s)
    pair_u = pairing([one, u])
    pair_1 = pairing([one, one])
    osum_u = oplus(one, u)
    osum_1 = oplus(one, one)
    return {
        "theta": theta,
        "pairing_gap": distance(double(pair_u), double(pair_1)),
        "oplus_gap": distance(double(osum_u), double(osum_1)),
    }

