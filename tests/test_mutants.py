"""Mutants: each patches one primitive, and the suites that claim a law it
breaks must fail a row with it installed."""
import pytest

from sccckit import WProjModel, resolve_model, run_suite


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
