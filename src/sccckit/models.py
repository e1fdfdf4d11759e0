"""Concrete matrix models and seeded sampling.

A ``ModelHandle`` is what a model decides; everything else is computed on
plain ``Morphism``s with ``morphisms``, ``core`` and ``ortho``, which
also holds the biproduct helpers, so a plain model imports neither.  A model
samples (its three ``sample_*`` methods return matrices), decides when two
matrices are one arrow (``equal``) and reads scalars (``scalar``,
``scalar_value`` and ``scalar_power``).  On a plain model an arrow is its
matrix.  The phase quotient (``wproj.WProjModel``) keeps the matrices of its
base and overrides only ``equal``, ``scalar`` and ``scalar_value``: which
matrices count as one arrow, and what value a scalar has.  Three models
ship, built by ``semiring_model``: ``fdhilb`` (complex matrices), ``rel``
(boolean matrices, i.e. relations) and ``weights`` (nonnegative reals).

``scalar_power`` takes its exponent as a rational (a Fraction or an int),
reads it with ``float()`` and never builds a Fraction.  The exponents the
Born tables hand it are ``born.Exponent``s, read from their input once per
table and built with their float, so that read converts nothing.  A
scalar's value is read once per power and a float value, real as it is,
passes the real checks unconverted.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericRange, RootUnavailable
from .morphisms import (Morphism, _derived, compose, dagger, equal, scalar,
                        scalar_value)
from .objects import ObjectExpr, dim, normalize
from .semirings import (BOOLEAN, COMPLEX, NONNEG, InvolutiveSemiring,
                        check_semiring_laws, nonneg_value)


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
        except OverflowError:
            raise NumericRange(
                f"power {exponent} of the scalar value {v} overflows") from None
        return self.scalar(power)

    # -- sampling: plain matrices ---------------------------------------------

    def sample_morphism(self, rng: np.random.Generator, dom: ObjectExpr,
                        cod: ObjectExpr) -> Morphism:
        # the semiring hands over a fresh array: ``_derived`` coerces its
        # dtype, checks its shape and freezes it in place, with no copy
        dom, cod = normalize(dom), normalize(cod)
        shape = (dim(cod), dim(dom))
        return _derived(dom, cod, self.semiring.sample(rng, shape), self.semiring, shape)

    def sample_positive(self, rng: np.random.Generator, a: ObjectExpr) -> Morphism:
        """A positive endomorphism h = f(dagger) o f of a."""
        f = self.sample_morphism(rng, a, a)
        return compose(dagger(f), f)

    def sample_unit_scalar(self, rng: np.random.Generator) -> Morphism:
        """A scalar u with u o u(dagger) = 1 (a phase when the model has them)."""
        phase = self.semiring.phase
        u = self.semiring.one if phase is None else phase(rng)
        return scalar(u, self.semiring)


def semiring_model(s: InvolutiveSemiring, name: str | None = None) -> ModelHandle:
    """Wrap any involutive semiring, a shipped one too, after spot-checking its laws."""
    check_semiring_laws(s, np.random.default_rng(7))
    return ModelHandle(name or s.name, s)


@lru_cache(maxsize=None)
def fdhilb() -> ModelHandle:
    """Complex matrices with conjugate-transpose adjoint."""
    return semiring_model(COMPLEX, "fdhilb")


@lru_cache(maxsize=None)
def rel_model() -> ModelHandle:
    """Boolean matrices: relations with relational converse as adjoint."""
    return semiring_model(BOOLEAN, "rel")


@lru_cache(maxsize=None)
def weight_model() -> ModelHandle:
    """Nonnegative real matrices: a phase-free model with identity involution."""
    return semiring_model(NONNEG, "weights")


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

