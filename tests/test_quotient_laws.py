"""The sccc and ortho tables on the phase quotient, with every row's verdict.

Both tables draw through the model and compare through ``model.equal`` on
lifted representatives, so on wproj:<base> each row states its law for
phase classes.  The expected verdict of every row is written down here with
the reason it holds (or, for the one expected-fail, why it must not).
"""
import pytest

from sccckit import resolve_model, run_suite

# row -> (expected status, why that is the verdict on phase classes)
SCCC = {
    "yanking": ("pass", "the yanking composite is the identity matrix, so its class is 1_A"),
    "unit-coherence": ("pass", "both sides are the same column, a fortiori one class"),
    "structural-isos-unitary": ("pass", "the isos are unitary matrices; classes of equal matrices agree"),
    "name-unfoldings-agree": ("pass", "both unfoldings are the name's matrix, a fortiori one class"),
    "name-of-identity": ("pass", "name(1_A) and eta_A are one matrix"),
    "scalar-through-compose": ("pass", "the two sides are equal matrices of the representatives"),
    "scalar-through-tensor": ("pass", "the two sides are equal matrices of the representatives"),
    "tensor-interchange": ("pass", "interchange holds for the representatives, hence for classes"),
    "dagger-involutive-contravariant": ("pass", "both laws hold for the representatives"),
    "dagger-factorization": ("pass", "the dagger factors through star and lower star on matrices"),
    "swap-naturality": ("pass", "naturality holds for the representatives"),
    "scalar-commutativity": ("pass", "1 x 1 products commute"),
    "inner-product-two-routes": ("pass", "both routes give one scalar of the representatives"),
    "norm-scalar-positive": ("pass", "||f|| does not see the phase of f and is a nonnegative real"),
    "inner-product-on-states": ("pass", "both sides are one scalar of the representatives"),
    "double-ignores-phase": ("pass", "a class's identity, its doubled form, ignores the phase of its representative"),
    "phase-witnesses": ("pass", "the witnessed scalars satisfy both equations on the representatives"),
    "state-density-identity": ("pass", "stated on the representative, where the two routes coincide"),
    "born-probability-loop": ("pass", "the loop and the trace route agree on the representative"),
    "partial-trace-of-swap": ("pass", "Tr_A(sigma) is the identity matrix"),
    "trace-counts-dimension": ("pass", "Tr(1_A) and the base's d-fold sum 1 + ... + 1 are one scalar, so one class"),
    "partial-trace-splits-identity": ("pass", "Tr_A(1 (x) g) = dim(A) . g for the representative g"),
}
ORTHO = {
    "zero-through-zero-object": ("pass", "a statement about the zero matrix itself"),
    "zero-annihilates": ("pass", "composites with zero are zero matrices, one class"),
    "block-sum-commutes-with-dagger": ("pass", "holds for the block sum of the representatives"),
    "block-sum-functorial": ("pass", "holds for the block sum of the representatives"),
    "additive-isos-unitary": ("pass", "the additive isos are unitary matrices"),
    "distributivity-natural": ("pass", "naturality holds for the representatives"),
    "pseudo-maps-orthonormal": ("pass", "p_i o q_j is an identity or zero matrix"),
    "pseudo-injection-adjoint": ("pass", "q_i(dagger) and p_i are one matrix"),
    "pseudo-projection-swaps": ("pass", "the two projections are one matrix"),
    "pseudo-projection-natural": ("pass", "naturality holds for the representatives"),
    "pseudo-projection-reassociates": ("pass", "both composites are one matrix"),
    "unitary-components-orthonormal": ("pass", "the component composites are identity or zero matrices"),
    "blocks-reassemble": ("pass", "the blocks of a representative sum back to it"),
    "derived-sum-is-entrywise": ("pass", "the derived sum of representatives adds their entries"),
    "derived-sum-matches-biproduct-sum": ("pass", "both routes sum the same representatives"),
    "derived-sum-commutative-monoid": ("pass", "the monoid laws hold for the representatives"),
    "block-sum-on-phase-classes": ("expected-fail", "the block sum of classes depends on the representatives"),
}
# rows a table has only over a semiring with phases
PHASE_ROWS = {"double-ignores-phase", "phase-witnesses",
              "unitary-components-orthonormal", "block-sum-on-phase-classes"}


def _expected(table: dict, base: str) -> dict:
    return {name: status for name, (status, _) in table.items()
            if base == "fdhilb" or name not in PHASE_ROWS}


@pytest.mark.parametrize("seed", [0, 7, 101])
@pytest.mark.parametrize("base", ["fdhilb", "rel", "weights"])
@pytest.mark.parametrize("suite,table", [("sccc", SCCC), ("ortho", ORTHO)],
                         ids=["sccc", "ortho"])
def test_every_row_has_its_committed_verdict_on_the_quotient(suite, table, base, seed):
    report = run_suite(suite, resolve_model(f"wproj:{base}"), trials=25, seed=seed)
    got = {r.check_name: r.status for r in report.results}
    assert got == _expected(table, base)
    assert report.ok
