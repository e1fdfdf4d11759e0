"""Mutants: each patches one primitive, and the suites that claim a law it
breaks must fail a row with it installed."""
import pytest

from sccckit import ModelHandle, WProjModel, resolve_model, run_suite, scalar


def _failed(suite: str, selector: str) -> list[str]:
    report = run_suite(suite, resolve_model(selector), trials=10, seed=3)
    return [r.check_name for r in report.results if r.status == "fail"]


@pytest.mark.parametrize("answer,suites", [
    # a quotient that identifies every pair cannot separate weight from phase
    (True, ["wproj"]),
    # one that identifies nothing loses every law stated as a class equality
    (False, ["wproj", "sccc"]),
], ids=["quotient-equal-always-true", "quotient-equal-always-false"])
def test_a_constant_quotient_equality_fails_a_row(monkeypatch, answer, suites):
    monkeypatch.setattr(WProjModel, "equal", lambda self, f, g, rel=None: answer)
    for suite in suites:
        assert _failed(suite, "wproj:fdhilb"), suite


def _undoubled_value(self, s):
    """The quotient's scalar value read off the representative c, not c c(dagger)."""
    v = s.array.item()
    return float(v.real) if isinstance(v, complex) else v


# the born rows that read a quotient scalar's value or build one from a value
BORN_SCALAR_ROWS = [
    "valuation-splits-binary", "valuation-splits-ternary",
    "valuation-additive-on-blocks", "scalar-sum-associative",
    "scalar-sum-distributive", "valuation-root-roundtrip", "diagonal-axiom",
    "trace-linearity", "norm-block-decomposition", "one-plus-one",
    "norm-scalar-has-positive-root",
]
POWER_ROWS = ["valuation-root-roundtrip", "scalar-sum-as-block-valuation",
              "norm-scalar-has-positive-root"]


@pytest.mark.parametrize("cls,method,mutant,catches", [
    (WProjModel, "scalar_value", _undoubled_value, {
        ("born", "wproj:fdhilb"): BORN_SCALAR_ROWS,
        ("wproj", "wproj:fdhilb"): ["quotient-scalars-nonnegative"],
        ("equivalence", "wproj:fdhilb"): ["axiom-legs-agree"]}),
    (WProjModel, "scalar", lambda self, value: scalar(value, self.semiring), {
        ("born", "wproj:fdhilb"): BORN_SCALAR_ROWS}),
    (ModelHandle, "scalar_power", lambda self, s, exponent: s, {
        ("born", selector): POWER_ROWS
        for selector in ("fdhilb", "wproj:fdhilb", "weights")}),
], ids=["quotient-scalar-value-undoubled", "quotient-scalar-unrooted",
        "scalar-power-ignores-exponent"])
def test_a_broken_scalar_read_fails_its_rows(monkeypatch, cls, method, mutant, catches):
    monkeypatch.setattr(cls, method, mutant)
    for (suite, selector), rows in catches.items():
        missed = set(rows) - set(_failed(suite, selector))
        assert not missed, (suite, selector, sorted(missed))
