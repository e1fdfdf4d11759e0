"""Strongly compact closed structure over the matrix models.

Everything here is defined by the categorical composites themselves: units and
counits, names, scalar action, the two trace forms, the Hilbert-Schmidt inner
product, doubling, and the phase witnesses.  Structural isomorphisms are
explicit morphisms (never syntactic identities), so every law check genuinely
exercises them:

* lam(A): A -> I @ A and rho(A): A -> A @ I are identity matrices with
  retyped ends,
* alpha(A,B,C): A @ (B @ C) -> (A @ B) @ C is the identity matrix (the
  lexicographic basis order is associative),
* sigma(A,B): A @ B -> B @ A is the transposition permutation,
* the dual of the unit is realized strictly by object normalization.

These structure maps, the inverse left unitor lam_A(dagger) that
``scalar_mult`` leaves through, the unit eta_A, the counit eta_A(dagger) and
the two legs of ``partial_trace`` around 1 (x) f are canonical once their
objects are fixed, so each is memoized per (objects, semiring) in one
bounded cache.  That is sound because each is a deterministic function of
hashable, immutable arguments (semirings hash by identity) that takes no
array and checks nothing, and returns a morphism whose array is frozen: a
shared result is indistinguishable from a fresh one.  Each is built
diagrammatically from the primitives, so a broken primitive is cached
broken and every check that catches it still does.  Nothing that reads
arrays or performs a check is memoized: ``name`` computes and compares both
unfoldings on every call, and ``trace``, ``partial_trace``, ``scalar_mult``
and ``double`` apply their argument afresh.  No call builds anything twice
either: ``hs_norm_sq`` names its argument once, and ``phase_witnesses``
forms both of its scalars from the one name of f.

``name`` is computed on matrices (``name_array``): both unfoldings run the
semiring's kron and matmul kernels on plain arrays, with the transpose f*
taken by ``star``, so the one dual it uses is the only arrow built before
the name itself.  ``bipartite_projector`` is computed the same way
(``projector_array``), and the phase quotient's projector criterion reads
that matrix.  ``trace`` reads its middle leg (1 (x) f) o eta, the name of
f, in closed form as f's stacked columns, and builds only its 1 x 1 result.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (AbsorptionMismatch, InvariantViolation, NotPhaseEquivalent,
                     NotProjector, NumericRange, TypeMismatch)
from .morphisms import (Morphism, _derived, adopt, compose, dagger, equal, eye,
                        identity, kernel_array, star, tensor)
from .objects import ObjectExpr, Tensor, UNIT, dim, dual, format_object, normalize
from .semirings import InvolutiveSemiring


@lru_cache(maxsize=4096)
def lam(a: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """Left unitor A -> I @ A."""
    return adopt(a, Tensor(UNIT, a), eye(dim(a), s), s)


@lru_cache(maxsize=4096)
def lam_inv(a: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """The inverse left unitor lam_A(dagger): I @ A -> A."""
    return dagger(lam(a, s))


@lru_cache(maxsize=4096)
def rho(a: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """Right unitor A -> A @ I."""
    return adopt(a, Tensor(a, UNIT), eye(dim(a), s), s)


@lru_cache(maxsize=4096)
def alpha(a: ObjectExpr, b: ObjectExpr, c: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """Associator A @ (B @ C) -> (A @ B) @ C."""
    n = dim(a) * dim(b) * dim(c)
    return adopt(Tensor(a, Tensor(b, c)), Tensor(Tensor(a, b), c), eye(n, s), s)


@lru_cache(maxsize=4096)
def sigma(a: ObjectExpr, b: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """Symmetry A @ B -> B @ A, as the basis transposition permutation."""
    da, db = dim(a), dim(b)
    arr = np.zeros((da * db, da * db), dtype=s.dtype)
    cols = np.arange(da * db)
    i, j = divmod(cols, db)
    arr[j * da + i, cols] = s.one
    return adopt(Tensor(a, b), Tensor(b, a), arr, s)


@lru_cache(maxsize=4096)
def unit(a: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """The unit eta_A: I -> A* @ A, the column vector of the identity.

    For a zero-dimensional object this is the empty column.
    """
    d = dim(a)
    arr = np.zeros((d * d, 1), dtype=s.dtype)
    idx = np.arange(d)
    arr[idx * d + idx, 0] = s.one
    return adopt(UNIT, Tensor(dual(a), a), arr, s)


@lru_cache(maxsize=4096)
def counit(a: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """The counit eta_A(dagger): A* @ A -> I."""
    return dagger(unit(a, s))


def name_array(f: Morphism) -> np.ndarray:
    """The matrix of name(f), a (dim(A*) dim(B)) x 1 column.

    Both unfoldings are computed on matrices with the kernels ``tensor`` and
    ``compose`` run, each result passed through ``kernel_array`` as theirs
    are: (1 (x) f) o eta_A and the absorption unfolding (f* (x) 1) o eta_B,
    whose transpose f* comes from ``star``.  They must agree within
    tolerance on every call, or ``AbsorptionMismatch`` is raised; when they
    disagree because an entry of f is not finite, ``NumericRange`` is.
    """
    s = f.semiring
    m, n = f.array.shape
    via_dom = kernel_array(s.kron(eye(n, s), f.array), s, (n * m, n * n))
    via_dom = kernel_array(s.matmul(via_dom, unit(f.dom, s).array), s, (n * m, 1))
    via_cod = kernel_array(s.kron(star(f).array, eye(m, s)), s, (n * m, m * m))
    via_cod = kernel_array(s.matmul(via_cod, unit(f.cod, s).array), s, (n * m, 1))
    if not s.approx_equal(via_dom, via_cod):
        bad = np.flatnonzero(~np.isfinite(f.array))
        if bad.size:
            raise NumericRange(f"{f!r} has the non-finite entry "
                               f"{f.array.flat[bad[0]]} at row-major index {bad[0]}")
        raise AbsorptionMismatch(f"name unfoldings disagree for {f!r}")
    return via_dom


def name(f: Morphism) -> Morphism:
    """The name of f: I -> A* @ B, i.e. (1 (x) f) o eta_A.

    With the fixed basis conventions this is the column-stacking vectorization
    of the matrix of f.  Its matrix is ``name_array(f)``, which computes the
    absorption unfolding (f* (x) 1) o eta_B independently every call.
    """
    return adopt(UNIT, Tensor(dual(f.dom), f.cod), name_array(f), f.semiring)


def scalar_mult(s_mor: Morphism, f: Morphism) -> Morphism:
    """Scalar action s . f := lam_B(dagger) o (s (x) f) o lam_A."""
    if not s_mor.is_scalar:
        raise TypeMismatch("scalar action needs a scalar on the left")
    s = f.semiring
    return compose(lam_inv(f.cod, s), compose(tensor(s_mor, f), lam(f.dom, s)))


def projector_array(f: Morphism) -> np.ndarray:
    """The matrix of P_f = name(f) o name(f)(dagger), from ``name_array``.

    The adjoint of the name column is its involuted transpose, as ``dagger``
    computes it, and the product runs the kernel ``compose`` runs, each
    result passed through ``kernel_array``.
    """
    s = f.semiring
    n = name_array(f)
    k = n.shape[0]
    n_dagger = kernel_array(s.involution(n.T), s, (1, k))
    return kernel_array(s.matmul(n, n_dagger), s, (k, k))


def bipartite_projector(f: Morphism) -> Morphism:
    """P_f := name(f) o name(f)(dagger), an endomorphism of A* @ B."""
    end = Tensor(dual(f.dom), f.cod)
    return adopt(end, end, projector_array(f), f.semiring)


def double(f: Morphism) -> Morphism:
    """The doubled form f (x) f(dagger): A @ B -> B @ A."""
    return tensor(f, dagger(f))


def trace(f: Morphism) -> Morphism:
    """Categorical trace of an endomorphism: eta(dagger) o (1 (x) f) o eta,
    its middle leg, the name of f, read in closed form as f's stacked columns."""
    if f.dom != f.cod:
        raise TypeMismatch(f"trace needs an endomorphism, got {f!r}")
    s = f.semiring
    named = f.array.T.reshape(-1, 1)
    return _derived(UNIT, UNIT, s.matmul(counit(f.dom, s).array, named), s, (1, 1))


@lru_cache(maxsize=4096)
def _partial_trace_down(a: ObjectExpr, b: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """B -> I @ B -> (A* @ A) @ B -> A* @ (A @ B)."""
    down = compose(tensor(unit(a, s), identity(b, s)), lam(b, s))
    return compose(dagger(alpha(dual(a), a, b, s)), down)


@lru_cache(maxsize=4096)
def _partial_trace_up(a: ObjectExpr, c: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """A* @ (A @ C) -> (A* @ A) @ C -> I @ C -> C."""
    up = compose(tensor(counit(a, s), identity(c, s)), alpha(dual(a), a, c, s))
    return compose(lam_inv(c, s), up)


def partial_trace(f: Morphism, traced: ObjectExpr) -> Morphism:
    """Trace out a leading tensor factor of f: traced @ B -> traced @ C.

    The composite lam(dagger) o (eta(dagger) (x) 1) o (1 (x) f) o
    (eta (x) 1) o lam, with explicit associators.  Its legs before and after
    1 (x) f read no array and are memoized, so a call runs one tensor and two
    composes.  For B = C = I this is the matrix trace as a scalar.
    """
    a = normalize(traced)
    s = f.semiring
    if not (isinstance(f.dom, Tensor) and isinstance(f.cod, Tensor)
            and f.dom.left == a and f.cod.left == a):
        raise TypeMismatch(
            f"partial trace over {format_object(a)} needs matching leading factors, got {f!r}")
    mid = compose(tensor(identity(dual(a), s), f), _partial_trace_down(a, f.dom.right, s))
    return compose(_partial_trace_up(a, f.cod.right, s), mid)


def hs_inner(f: Morphism, g: Morphism) -> Morphism:
    """Hilbert-Schmidt inner product <f|g> := name(f)(dagger) o name(g)."""
    if f.dom != g.dom or f.cod != g.cod:
        raise TypeMismatch("inner product needs parallel morphisms")
    return compose(dagger(name(f)), name(g))


def hs_norm_sq(f: Morphism) -> Morphism:
    """The squared Hilbert-Schmidt norm ||f|| := name(f)(dagger) o name(f)."""
    n = name(f)
    return compose(dagger(n), n)


def phase_witnesses(f: Morphism, g: Morphism) -> tuple[Morphism, Morphism]:
    """Scalars (s, t) with s . f = t . g and s o s(dagger) = t o t(dagger).

    Defined whenever the doubled forms of f and g agree: s := <f|f>,
    t := <g|f>.  Both guarantees are re-checked numerically before returning.
    """
    if not equal(double(f), double(g)):
        raise NotPhaseEquivalent("doubled forms differ; no phase witnesses exist")
    nf = name(f)
    s = compose(dagger(nf), nf)                # hs_norm_sq(f), on the one name of f
    t = compose(dagger(name(g)), nf)
    if not equal(scalar_mult(s, f), scalar_mult(t, g)):
        raise InvariantViolation("phase witnesses failed s . f = t . g")
    if not equal(compose(s, dagger(s)), compose(t, dagger(t))):
        raise InvariantViolation("phase witnesses failed s s(dagger) = t t(dagger)")
    return s, t


def born_prob(psi: Morphism, p: Morphism) -> Morphism:
    """The probability loop psi(dagger) o P o psi for a projector P.

    P must be idempotent and self-adjoint within tolerance.  The loop value is
    cross-checked against Tr(P o rho) with rho = psi o psi(dagger); a mismatch
    means the model is broken and raises.
    """
    if psi.dom != UNIT:
        raise TypeMismatch("states are morphisms out of I")
    if p.dom != p.cod or p.dom != psi.cod:
        raise TypeMismatch("projector must be an endomorphism of the state space")
    if not equal(compose(p, p), p) or not equal(dagger(p), p):
        raise NotProjector(f"not an idempotent self-adjoint map: {p!r}")
    prob = compose(dagger(psi), compose(p, psi))
    rho_state = compose(psi, dagger(psi))
    via_trace = trace(compose(p, rho_state))
    if not equal(prob, via_trace):
        raise InvariantViolation("probability loop disagrees with Tr(P o rho)")
    return prob


def state_density_identity_holds(psi: Morphism, rel: float | None = None) -> bool:
    """Check psi o psi(dagger) = rho(dagger) o (psi (x) psi(dagger)) o lam."""
    s = psi.semiring
    lhs = compose(psi, dagger(psi))
    rhs = compose(dagger(rho(psi.cod, s)),
                  compose(tensor(psi, dagger(psi)), lam(psi.cod, s)))
    return equal(lhs, rhs, rel)


def yanking_composite(a: ObjectExpr, s: InvolutiveSemiring) -> Morphism:
    """lam(dagger) o (eta_{A*}(dagger) (x) 1) o alpha o (1 (x) eta_A) o rho: A -> A.

    The yanking axiom says this equals the identity on A.
    """
    m = compose(tensor(identity(a, s), unit(a, s)), rho(a, s))  # A -> A @ (A* @ A)
    m = compose(alpha(a, dual(a), a, s), m)                     # -> (A @ A*) @ A
    m = compose(tensor(counit(dual(a), s), identity(a, s)), m)  # -> I @ A
    return compose(lam_inv(a, s), m)                            # -> A

