"""Concrete matrix models and seeded sampling.

A ``ModelHandle`` is what a model decides; everything else is computed on
plain ``Morphism``s with ``morphisms``, ``core`` and ``ortho``.  A model
samples (its four ``sample_*`` methods return matrices), decides when two
matrices are one arrow (``equal``) and reads scalars (``scalar``,
``scalar_value`` and ``scalar_power``).  On a plain model an arrow is its
matrix.  The phase quotient (``wproj.WProjModel``) keeps the matrices of its
base and overrides only ``equal``, ``scalar`` and ``scalar_value``: which
matrices count as one arrow, and what value a scalar has.  Three models
ship: ``fdhilb`` (complex matrices), ``rel`` (boolean matrices, i.e.
relations) and ``weights`` (nonnegative reals, a phase-free toy model).

``scalar_power`` takes its exponent as a rational (a Fraction or an int)
and converts it to a float once per call; it never builds a Fraction.  The
Born exponents nu and 1/nu it is handed are converted from their input
once per table, by ``born.Nu``.  A scalar's value is read once per power
and a float value, real as it is, passes the real checks unconverted.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateSample, RootUnavailable, TypeMismatch
from .morphisms import Morphism, adopt, compose, dagger, equal, scalar, scalar_value
from .objects import Gen, ObjectExpr, UNIT, ZERO, dim
from .semirings import (BOOLEAN, COMPLEX, NONNEG, InvolutiveSemiring,
                        check_semiring_laws, nonneg_value)
from . import ortho


@dataclass(frozen=True)
class ModelHandle:
    """A named semiring model: it samples, decides equality and reads scalars."""

    name: str
    semiring: InvolutiveSemiring

    # arrows are matrices themselves; the phase quotient sets this
    quotient = False

    # -- equality and scalars -------------------------------------------------

    def scalar(self, value) -> Morphism:
        return scalar(value, self.semiring)

    def equal(self, f: Morphism, g: Morphism, rel: float | None = None) -> bool:
        return equal(f, g, rel)

    def scalar_value(self, s: Morphism):
        return scalar_value(s)

    def scalar_power(self, s: Morphism, exponent) -> Morphism:
        """s raised to a rational power; needs a nonneg real value unless the
        exponent is an integer or the semiring is idempotent, and a nonzero
        one when the exponent is negative."""
        if self.semiring.idempotent:
            # as over the booleans, where x*x = x too, a positive power of a
            # scalar is the scalar itself
            return s if float(exponent) != 0 else self.scalar(self.semiring.one)
        v = self.scalar_value(s)
        q = float(exponent)
        if q == int(q):
            base, q = v, int(q)
        else:
            base = nonneg_value(v)
            if base is None:
                raise RootUnavailable(
                    f"cannot take power {exponent} of non-positive scalar {v}")
        try:
            power = base ** q
        except ZeroDivisionError:
            raise RootUnavailable(
                f"cannot take power {exponent} of the zero scalar") from None
        return self.scalar(power)

    # -- sampling: plain matrices ---------------------------------------------

    def sample_morphism(self, rng: np.random.Generator, dom: ObjectExpr,
                        cod: ObjectExpr) -> Morphism:
        # the semiring hands over a fresh array, so it is frozen, not copied
        arr = self.semiring.sample(rng, (dim(cod), dim(dom)))
        return adopt(dom, cod, arr, self.semiring)

    def sample_state(self, rng: np.random.Generator, a: ObjectExpr,
                     normalized: bool = False) -> Morphism:
        psi = self.sample_morphism(rng, UNIT, a)
        if normalized:
            if self.semiring is not COMPLEX:
                raise TypeMismatch("normalization is only meaningful in fdhilb")
            n = np.linalg.norm(psi.array)
            if n < 1e-12:
                raise DegenerateSample("sampled a near-zero state")
            psi = adopt(UNIT, a, psi.array / n, self.semiring)
        return psi

    def sample_positive(self, rng: np.random.Generator, a: ObjectExpr) -> Morphism:
        """A positive endomorphism h = f(dagger) o f of a."""
        f = self.sample_morphism(rng, a, a)
        return compose(dagger(f), f)

    def sample_unit_scalar(self, rng: np.random.Generator) -> Morphism:
        """A scalar u with u o u(dagger) = 1 (a phase when the model has them)."""
        phase = self.semiring.phase
        u = self.semiring.one if phase is None else phase(rng)
        return scalar(u, self.semiring)


@lru_cache(maxsize=None)
def fdhilb() -> ModelHandle:
    """Complex matrices with conjugate-transpose adjoint."""
    check_semiring_laws(COMPLEX, np.random.default_rng(7))
    return ModelHandle("fdhilb", COMPLEX)


@lru_cache(maxsize=None)
def rel_model() -> ModelHandle:
    """Boolean matrices: relations with relational converse as adjoint."""
    check_semiring_laws(BOOLEAN, np.random.default_rng(7))
    return ModelHandle("rel", BOOLEAN)


@lru_cache(maxsize=None)
def weight_model() -> ModelHandle:
    """Nonnegative real matrices: a phase-free model with identity involution."""
    check_semiring_laws(NONNEG, np.random.default_rng(7))
    return ModelHandle("weights", NONNEG)


def semiring_model(s: InvolutiveSemiring, name: str | None = None) -> ModelHandle:
    """Wrap an arbitrary involutive semiring after spot-checking its laws."""
    check_semiring_laws(s, np.random.default_rng(7))
    return ModelHandle(name or s.name, s)


def resolve_model(selector: str):
    """Map a CLI selector (fdhilb, rel, weights, wproj:<base>) to a handle.

    <base> is one of the three plain models; a nested quotient is refused.
    """
    if selector.startswith("wproj:"):
        from .wproj import WProjModel
        return WProjModel(resolve_model(selector[len("wproj:"):]))
    try:
        return {"fdhilb": fdhilb, "rel": rel_model, "weights": weight_model}[selector]()
    except KeyError:
        raise ValueError(f"unknown model {selector!r}; "
                         "expected fdhilb, rel, weights or wproj:<base>") from None


# -- random unitaries ---------------------------------------------------------

def _modified_gram_schmidt(m: np.ndarray) -> np.ndarray | None:
    """Orthonormalize columns; None when a column degenerates."""
    q = m.astype(np.complex128).copy()
    n = q.shape[1]
    for k in range(n):
        v = q[:, k]
        for j in range(k):
            v = v - np.vdot(q[:, j], v) * q[:, j]
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            return None
        q[:, k] = v / norm
    return q


def random_unitary(m: ModelHandle, dims, seed, dom: ObjectExpr | None = None) -> Morphism:
    """A seeded Haar-ish unitary dom -> (+)_i A_i with dim(A_i) = dims[i].

    Built by orthonormalizing a seeded complex sample; resamples up to 8 times
    before giving up with ``DegenerateSample``.  Only defined over a complex
    semiring with phases, such as fdhilb's.
    """
    if m.semiring.phase is None:
        raise TypeMismatch("random unitaries are sampled over a semiring with phases")
    dims = list(dims)
    total = sum(dims)
    if total < 1 or any(d < 0 for d in dims):
        raise TypeMismatch(f"bad block dimensions {dims}")
    rng = np.random.default_rng(seed)
    q = None
    for _ in range(8):
        q = _modified_gram_schmidt(m.semiring.sample(rng, (total, total)))
        if q is not None:
            break
    if q is None:
        raise DegenerateSample("orthonormalization kept degenerating")
    parts = [ZERO if d == 0 else (UNIT if d == 1 else Gen(f"A{i}", d))
             for i, d in enumerate(dims)]
    cod = ortho.OplusDecomposition.from_parts(parts).whole
    if dom is None:
        dom = UNIT if total == 1 else Gen("A", total)
    if dim(dom) != total:
        raise TypeMismatch("domain dimension does not match the blocks")
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
    cod = ortho.OplusDecomposition.from_parts([f.cod for f in fs]).whole
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
    dom = ortho.OplusDecomposition.from_parts([f.dom for f in fs]).whole
    return Morphism(dom, cod, np.hstack([f.array for f in fs]), s)

