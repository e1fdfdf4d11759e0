"""Trace valuations, scalar sums, and the axiom equivalences."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest

from sccckit import (
    COMPLEX,
    Gen,
    ModelHandle,
    Morphism,
    Oplus,
    UNIT,
    WProjModel,
    check_born_decomposition,
    corrupted_trace,
    decomposition,
    fdhilb,
    identity,
    rel_model,
    run_suite,
    scalar_sum,
    scalar_value,
    valuation_norm,
    weight_model,
)
from sccckit.born import _run_legs
from sccckit.cli import main

# the born suite's legs, run in groups by name
DIAGONAL = ("diagonal-axiom", "diagonal-axiom-derived-sum")
LINEARITY = ("trace-linearity", "sum-trace-vs-block-trace")
NORM_BLOCKS = ("norm-block-decomposition",)

Q = Gen("Q", 2)
M = fdhilb()


def cmor(arr, dom=Q, cod=Q):
    return Morphism(dom, cod, np.asarray(arr, dtype=complex), COMPLEX)


def test_valuation_norm_oracle():
    # ||f|| at nu=1 is the squared HS weight: 30 for [[1,2],[3,4]]
    f = cmor([[1, 2], [3, 4]])
    assert scalar_value(valuation_norm(M, f)) == pytest.approx(30)
    assert scalar_value(valuation_norm(M, f, Fraction(1, 2))) == pytest.approx(np.sqrt(30))


def test_valuation_splits_over_blocks():
    rng = np.random.default_rng(52)
    d = decomposition(Q, Gen("B", 3))
    for nu in (Fraction(1), Fraction(1, 2)):
        for _ in range(20):
            f = M.sample_morphism(rng, d.whole, d.whole)
            assert check_born_decomposition(M, f, d, nu)


def test_scalar_sum_frozen_values():
    one = M.scalar(1.0 + 0j)
    # nu = 1: ordinary addition; nu = 1/2: sqrt-domain addition
    assert scalar_value(scalar_sum(M, one, one)) == pytest.approx(2.0, abs=1e-12)
    assert scalar_value(scalar_sum(M, one, one, Fraction(1, 2))) == pytest.approx(
        np.sqrt(2.0), abs=1e-12)
    # quotient scalars are squared weights, so their "2" is 4
    w = WProjModel(fdhilb())
    wone = w.scalar(1.0)
    assert w.scalar_value(scalar_sum(w, wone, wone)) == pytest.approx(4.0, abs=1e-12)
    # booleans saturate
    r = rel_model()
    assert r.scalar_value(scalar_sum(r, r.scalar(True), r.scalar(True))) == 1


def test_scalar_sum_matches_block_trace():
    # s + t = Tr(s (+) t) at nu = 1, on random nonnegative weights
    rng = np.random.default_rng(53)
    for _ in range(20):
        s = M.scalar(complex(rng.uniform(0, 4)))
        t = M.scalar(complex(rng.uniform(0, 4)))
        got = scalar_value(scalar_sum(M, s, t))
        want = scalar_value(s) + scalar_value(t)
        assert got == pytest.approx(want, rel=1e-9)


def test_corrupted_trace_drops_an_entry():
    three = corrupted_trace(identity(Gen("A", 3), COMPLEX))
    assert scalar_value(three) == pytest.approx(2.0)
    assert scalar_value(corrupted_trace(identity(Oplus(UNIT, UNIT), COMPLEX))) == pytest.approx(1.0)


@pytest.mark.parametrize("make", [fdhilb, rel_model, weight_model,
                                  lambda: WProjModel(fdhilb())])
def test_axiom_checks_pass(make):
    m = make()
    for legs in (DIAGONAL, LINEARITY, NORM_BLOCKS):
        batch = _run_legs(legs, m, 15, 3, None, None)
        assert all(r.status == "pass" for r in batch)


def test_axiom_checks_fail_under_corrupted_trace():
    diag = _run_legs(DIAGONAL, M, 15, 3, corrupted_trace, None)
    norm = _run_legs(NORM_BLOCKS, M, 15, 3, corrupted_trace, None)
    assert any(r.status == "fail" for r in diag)
    assert any(r.status == "fail" for r in norm)


def test_equivalence_verdicts():
    for m in (M, WProjModel(fdhilb())):
        results = run_suite("equivalence", m, trials=10, seed=4).results
        by_name = {r.check_name: r for r in results}
        honest = by_name["axiom-legs-agree"]
        assert honest.status == "pass"
        assert all(honest.witness["verdicts"].values())
        control = by_name["axiom-legs-agree-corrupted-control"]
        assert control.status == "expected-fail"
        assert not any(control.witness["verdicts"].values())


def _born_rows_past_the_float_range(monkeypatch, capsys, selector) -> dict:
    """The rows of ``verify born --nu 2`` on ``selector`` with every sample
    scaled by 1e80, by name; the run must exit 1 with its report."""
    sample = ModelHandle.sample_morphism

    def huge(self, rng, dom, cod):
        f = sample(self, rng, dom, cod)
        return Morphism(f.dom, f.cod, f.array * 1e80, f.semiring)

    monkeypatch.setattr(ModelHandle, "sample_morphism", huge)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["verify", "born", "--model", selector, "--nu", "2", "--trials", "2",
                   "--seed", "0", "--json", "-"])
    assert rc == 1
    return {r["check_name"]: r for r in json.loads(capsys.readouterr().out)["results"]}


@pytest.mark.parametrize("selector", ["fdhilb", "weights"])
def test_a_power_past_the_float_range_fails_its_row(monkeypatch, capsys, selector):
    # entries near 1e80 give traces near 1e160, whose square at nu = 2 is
    # past the largest float: each row that reaches one fails with a witness
    # naming the power, and the CLI still writes the report
    rows = _born_rows_past_the_float_range(monkeypatch, capsys, selector)
    witness = rows["valuation-fixed-by-dagger"]["witness"]
    assert rows["valuation-fixed-by-dagger"]["status"] == "fail"
    assert sorted(witness) == ["error", "trial"] and witness["trial"] == 0
    assert re.fullmatch(r"power 2 of the scalar value \S+ overflows", witness["error"])


@pytest.mark.parametrize("selector", ["wproj:fdhilb", "wproj:weights"])
def test_a_quotient_refuses_doubled_values_past_the_float_range(monkeypatch, capsys,
                                                                selector):
    # on the quotient a scalar's doubled value c c(dagger) overflows to inf
    # before any power is taken; equality refuses it by name, where it once
    # went to wequal and failed as "name unfoldings disagree"
    rows = _born_rows_past_the_float_range(monkeypatch, capsys, selector)
    failed = [r for r in rows.values() if r["status"] == "fail"]
    assert len(failed) == 15
    for r in failed:
        assert sorted(r["witness"]) == ["error", "trial"]
        assert re.fullmatch(r"the doubled forms of Morphism\(I -> I, \w+\) are not finite",
                            r["witness"]["error"]), r["check_name"]
