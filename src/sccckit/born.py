"""Trace-based valuations and the additivity laws that make a Born rule.

The central objects are the squared norm ||f|| = Tr(f(dagger) o f) and its
rational powers ||f||^nu, together with the scalar sum

    s + t = (Tr(s^(1/nu) (+) t^(1/nu)))^nu

manufactured from the trace and the block sum.  Everything is computed on
plain matrices with ``morphisms``, ``core`` and ``ortho``; only equality
and the scalar methods (``scalar``, ``scalar_value``, ``scalar_power``)
come from the model, so on the phase quotient a valuation is the doubled
value of its class.  Every axiom leg routes ALL trace uses through
one injectable trace function, so a corrupted trace corrupts the
valuation, the scalar sum and the axioms coherently; that is what makes the
equivalence theorem testable as a negative control.  The legs are per-trial
rows of the born suite's table, and the theorem is a two-row table of whole
checks that run the legs honestly and corrupted; ``report.CheckRunner``
runs both tables and decides every status.

nu is converted where it enters: ``Nu`` reads it into the Fractions nu and
1/nu and refuses anything but a positive rational.  ``valuation_norm``,
``scalar_sum`` and ``check_born_decomposition`` take nu as any rational,
read per call, or as a ``Nu``, passed through; the born suite's table
(``suites._born_checks``) and ``leg_checks`` read theirs once, when the
table is built, so no trial makes a Fraction.  The exponents a table hands
``scalar_power`` are ``Exponent``s, which keep their float, so no trial
converts one either.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce

import numpy as np

from . import core, ortho
from .errors import TypeMismatch
from .morphisms import Morphism, compose, dagger, direct_sum, scalar
from .objects import Gen
from .report import (EXPECTED_FAIL, PER_TRIAL, WHOLE, Check, CheckResult,
                     CheckRunner, Held, Law, serialize_morphism)


class Exponent(Fraction):
    """A Fraction that keeps its float: ``float()`` reads the value taken
    when it was built, so ``scalar_power`` converts nothing per call.  It
    prints, compares and computes as the Fraction it is."""

    __slots__ = ("_float",)

    def __new__(cls, *args):
        self = super().__new__(cls, *args)
        self._float = Fraction.__float__(self)
        return self

    def __float__(self):
        return self._float


class Nu:
    """A valuation exponent nu, read once: ``value`` = nu and ``inverse`` =
    1/nu, both ``Exponent``s.  nu is anything ``Fraction`` reads (a
    Fraction, an int, a float or a string such as "1/2"); a ValueError
    naming nu refuses one that is not a positive rational."""

    __slots__ = ("value", "inverse")

    def __init__(self, nu):
        try:
            value = Exponent(nu)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            value = None
        if value is None or value <= 0:
            raise ValueError(f"nu must be a positive rational, got {nu!r}")
        self.value = value
        self.inverse = Exponent(value.denominator, value.numerator)


def _read_nu(nu) -> Nu:
    """nu as a ``Nu``: one is passed through, anything else is read."""
    return nu if type(nu) is Nu else Nu(nu)


def valuation_norm(model, f, nu=Fraction(1), trace_fn=None):
    """||f||^nu computed as (Tr(f(dagger) o f))^nu, read by the model."""
    nu = _read_nu(nu)
    tr = trace_fn if trace_fn is not None else core.trace
    return model.scalar_power(tr(compose(dagger(f), f)), nu.value)


def scalar_sum(model, s, t, nu=Fraction(1), trace_fn=None):
    """The nu-indexed sum of scalars: (Tr(s^(1/nu) (+) t^(1/nu)))^nu.

    At nu = 1 this is Tr(s (+) t); at nu = 1/2 it is sqrt(Tr(s^2 (+) t^2)).
    The outer and inner powers do not cancel, which is the whole point:
    different nu give genuinely different sums.  The block sum is not well
    defined on phase classes in general; here it only sums the nonnegative
    roots ``scalar_power`` returns, where it is.
    """
    nu = _read_nu(nu)
    tr = trace_fn if trace_fn is not None else core.trace
    a = model.scalar_power(s, nu.inverse)
    b = model.scalar_power(t, nu.inverse)
    return model.scalar_power(tr(direct_sum(a, b)), nu.value)


def corrupted_trace(f: Morphism) -> Morphism:
    """A deliberately wrong trace that drops the last diagonal entry.

    Used as a negative control: with this trace injected everywhere, the
    valuation, the scalar sum and all three axiom legs go wrong together.
    """
    if f.dom != f.cod:
        raise TypeMismatch("trace needs an endomorphism")
    s = f.semiring
    diag = np.diagonal(f.array)[:-1]
    return scalar(reduce(s.add, list(diag), s.zero), s)


# -- axiom checks -------------------------------------------------------------

def check_born_decomposition(model, f, decomp: ortho.OplusDecomposition,
                             nu=Fraction(1), tolerance=None) -> bool:
    """||f||^nu equals the nu-sum of the component valuations ||f_i||^nu."""
    nu = _read_nu(nu)
    parts = [compose(ortho.pseudo_projection(decomp, i, model.semiring), f)
             for i in range(len(decomp))]
    total = valuation_norm(model, f, nu)
    folded = reduce(lambda x, y: scalar_sum(model, x, y, nu),
                    [valuation_norm(model, p, nu) for p in parts])
    return model.equal(total, folded, tolerance)


def _sample_split(rng, n_parts: int = 2):
    parts = [Gen(f"B{i + 1}", int(rng.integers(1, 4))) for i in range(n_parts)]
    decomp = ortho.OplusDecomposition.from_parts(parts)
    a = Gen("A", int(rng.integers(1, 4)))
    return a, decomp


def leg_checks(model, tol, trace_fn=None) -> list[Check]:
    """The axiom legs as per-trial check entries, in born-suite order.

    Every trace use goes through ``trace_fn`` (``core.trace`` when None), so
    an injected corrupted trace reaches every leg.
    """
    s = model.semiring
    tr = trace_fn if trace_fn is not None else core.trace
    law = Law(model, tol)
    one = Nu(1)

    def diagonal_blocks(decomp, h):
        return [compose(compose(ortho.pseudo_projection(decomp, i, s), h),
                        ortho.pseudo_injection(decomp, i, s)) for i in range(2)]

    def diagonal(rng):
        _, decomp = _sample_split(rng)
        h = model.sample_positive(rng, decomp.whole)
        blocks = diagonal_blocks(decomp, h)
        rhs = scalar_sum(model, tr(blocks[0]), tr(blocks[1]), one, trace_fn)
        law(tr(h), rhs, lambda: {"h": serialize_morphism(h)})

    def diagonal_derived(rng):
        # same-shape split so the derived sum of the diagonal blocks also types
        part = Gen("A1", int(rng.integers(1, 4)))
        decomp = ortho.OplusDecomposition.from_parts([part, part])
        h = model.sample_positive(rng, decomp.whole)
        blocks = diagonal_blocks(decomp, h)
        law(tr(h), tr(ortho.derived_sum(blocks[0], blocks[1])),
            lambda: {"h": serialize_morphism(h)})

    def positive_pair(rng):
        a = Gen("A", int(rng.integers(1, 4)))
        return model.sample_positive(rng, a), model.sample_positive(rng, a)

    def pair_witness(h, h2):
        return lambda: {"h": serialize_morphism(h), "h_prime": serialize_morphism(h2)}

    def linearity(rng):
        h, h2 = positive_pair(rng)
        law(scalar_sum(model, tr(h), tr(h2), one, trace_fn),
            tr(ortho.derived_sum(h, h2)), pair_witness(h, h2))

    def block_trace(rng):
        h, h2 = positive_pair(rng)
        law(tr(ortho.derived_sum(h, h2)), tr(direct_sum(h, h2)), pair_witness(h, h2))

    def norm_blocks(rng):
        a, decomp = _sample_split(rng)
        f = model.sample_morphism(rng, a, decomp.whole)
        parts = [compose(ortho.pseudo_projection(decomp, i, s), f) for i in range(2)]
        lhs = valuation_norm(model, f, one, trace_fn)
        norms = [valuation_norm(model, p, one, trace_fn) for p in parts]
        law(lhs, tr(direct_sum(norms[0], norms[1])),
            lambda: {"f": serialize_morphism(f)})

    return [
        Check("diagonal-axiom", "Tr(h) = Tr(h_11) + Tr(h_22) for positive h",
              PER_TRIAL, diagonal),
        Check("diagonal-axiom-derived-sum",
              "Tr(h) = Tr(h_11 + h_22) when both blocks share a type",
              PER_TRIAL, diagonal_derived),
        Check("trace-linearity", "Tr(h) + Tr(h') = Tr(h + h') on positive morphisms",
              PER_TRIAL, linearity),
        Check("sum-trace-vs-block-trace",
              "Tr(h + h') = Tr(h (+) h') on positive morphisms",
              PER_TRIAL, block_trace),
        Check("norm-block-decomposition", "||f|| = Tr(||f_1|| (+) ||f_2||)",
              PER_TRIAL, norm_blocks),
    ]


def _run_legs(names, model, trials, seed, trace_fn, tolerance) -> list[CheckResult]:
    runner = CheckRunner(trials, seed, tolerance)
    return runner.run([c for c in leg_checks(model, runner.tol, trace_fn)
                       if c.name in names])


# the legs the equivalence theorem relates, by the key of its verdict vectors
_EQUIVALENCE_LEGS = {"norm-block-decomposition": "norm_block_decomposition",
                     "diagonal-axiom": "diagonal", "trace-linearity": "linearity"}


def equivalence_checks(model, trials: int, seed: int, tol) -> list[Check]:
    """The equivalence theorem as a two-row table of whole checks.

    Each row runs the block-decomposition, diagonal and linearity legs over
    min(trials, 30) trials, the first with the real trace and the second
    with the entry-dropping one: the honest verdicts must all hold, and the
    corrupted ones must break consistently.
    """
    def leg_verdicts(trace_fn) -> dict[str, bool]:
        results = _run_legs(_EQUIVALENCE_LEGS, model, min(trials, 30), seed,
                            trace_fn, tol)
        return {_EQUIVALENCE_LEGS[r.check_name]: r.passed for r in results}

    def honest(_):
        witness = {"verdicts": leg_verdicts(None)}
        return Held(witness) if all(witness["verdicts"].values()) else witness

    def corrupted(_):
        corrupt = leg_verdicts(corrupted_trace)
        # the equivalence must survive the corruption while the corruption
        # must visibly break the norm leg; over an idempotent semiring the
        # linearity leg can absorb an entry-dropping trace, the biconditional
        # cannot
        biconditional = corrupt["norm_block_decomposition"] == (
            corrupt["diagonal"] and corrupt["linearity"])
        return (biconditional and not corrupt["norm_block_decomposition"],
                {"verdicts": corrupt})

    return [
        Check("axiom-legs-agree", "norm decomposition <=> diagonal + linearity",
              WHOLE, honest),
        Check("axiom-legs-agree-corrupted-control",
              "the legs break consistently under an entry-dropping trace",
              EXPECTED_FAIL, corrupted),
    ]

