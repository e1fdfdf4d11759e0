"""Trace-based valuations and the additivity laws that make a Born rule.

The central objects are the squared norm ||f|| = Tr(f(dagger) o f) and its
rational powers ||f||^nu, together with the scalar sum

    s + t = (Tr(s^(1/nu) (+) t^(1/nu)))^nu

manufactured from the trace and the block sum.  Everything is computed on
plain matrices with ``morphisms``, ``core`` and ``ortho``; only equality
and the scalar methods (``scalar``, ``scalar_value``, ``scalar_power``)
come from the model, so on the phase quotient a valuation is the doubled
value of its class.  Every check in this module routes ALL trace uses
through one injectable trace function, so a corrupted trace corrupts the
valuation, the scalar sum and the axioms coherently; that is what makes the
equivalence theorem testable as a negative control.  The legs are per-trial
rows of the born suite's table, and the theorem is a two-row table of whole
checks that run the legs honestly and corrupted; ``report.CheckRunner``
runs both tables and decides every status.
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


def valuation_norm(model, f, nu=Fraction(1), trace_fn=None):
    """||f||^nu computed as (Tr(f(dagger) o f))^nu, read by the model."""
    tr = trace_fn if trace_fn is not None else core.trace
    return model.scalar_power(tr(compose(dagger(f), f)), Fraction(nu))


def scalar_sum(model, s, t, nu=Fraction(1), trace_fn=None):
    """The nu-indexed sum of scalars: (Tr(s^(1/nu) (+) t^(1/nu)))^nu.

    At nu = 1 this is Tr(s (+) t); at nu = 1/2 it is sqrt(Tr(s^2 (+) t^2)).
    The outer and inner powers do not cancel, which is the whole point:
    different nu give genuinely different sums.  The block sum is not well
    defined on phase classes in general; here it only sums the nonnegative
    roots ``scalar_power`` returns, where it is.
    """
    nu = Fraction(nu)
    tr = trace_fn if trace_fn is not None else core.trace
    a = model.scalar_power(s, 1 / nu)
    b = model.scalar_power(t, 1 / nu)
    return model.scalar_power(tr(direct_sum(a, b)), nu)


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
                             nu=Fraction(1), trace_fn=None,
                             tolerance=None) -> bool:
    """||f||^nu equals the nu-sum of the component valuations ||f_i||^nu."""
    parts = [compose(ortho.pseudo_projection(decomp, i, model.semiring), f)
             for i in range(len(decomp))]
    total = valuation_norm(model, f, nu, trace_fn)
    folded = reduce(lambda x, y: scalar_sum(model, x, y, nu, trace_fn),
                    [valuation_norm(model, p, nu, trace_fn) for p in parts])
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

    def diagonal_blocks(decomp, h):
        return [compose(compose(ortho.pseudo_projection(decomp, i, s), h),
                        ortho.pseudo_injection(decomp, i, s)) for i in range(2)]

    def diagonal(rng):
        _, decomp = _sample_split(rng)
        h = model.sample_positive(rng, decomp.whole)
        blocks = diagonal_blocks(decomp, h)
        rhs = scalar_sum(model, tr(blocks[0]), tr(blocks[1]), Fraction(1), trace_fn)
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
        law(scalar_sum(model, tr(h), tr(h2), Fraction(1), trace_fn),
            tr(ortho.derived_sum(h, h2)), pair_witness(h, h2))

    def block_trace(rng):
        h, h2 = positive_pair(rng)
        law(tr(ortho.derived_sum(h, h2)), tr(direct_sum(h, h2)), pair_witness(h, h2))

    def norm_blocks(rng):
        a, decomp = _sample_split(rng)
        f = model.sample_morphism(rng, a, decomp.whole)
        parts = [compose(ortho.pseudo_projection(decomp, i, s), f) for i in range(2)]
        lhs = valuation_norm(model, f, Fraction(1), trace_fn)
        norms = [valuation_norm(model, p, Fraction(1), trace_fn) for p in parts]
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

