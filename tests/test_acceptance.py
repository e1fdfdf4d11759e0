"""End-to-end acceptance gate.

Each test covers one numbered criterion, computes a single verdict, records
a printable pass/fail line for the terminal summary, and only then asserts.
Tolerances and sample counts are stated inline and are part of the contract.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from conftest import record_criterion

from sccckit import (
    COMPLEX,
    Gen,
    Morphism,
    WProjModel,
    born_prob,
    check_born_decomposition,
    compose,
    dagger,
    decomposition,
    derived_sum,
    dim,
    direct_sum,
    double,
    equal,
    fdhilb,
    hs_inner,
    hs_norm_sq,
    identity,
    oplus_illdefined_witness,
    phase_witnesses,
    rel_model,
    run_suite,
    run_teleportation,
    scalar,
    scalar_mult,
    scalar_sum,
    scalar_value,
    trace,
    wequal,
    wequal_to,
    zeros,
)
from sccckit.born import _run_legs
from sccckit.objects import Oplus, UNIT
from sccckit.report import deserialize_morphism

M = fdhilb()
DIMS = [1, 2, 3, 4]


def _objects(rng):
    return Gen("A", int(rng.integers(1, 5)))


def _unit_state(rng, a):
    """A sampled state of a scaled to norm one."""
    psi = M.sample_morphism(rng, UNIT, a)
    return Morphism(UNIT, a, psi.array / np.linalg.norm(psi.array), COMPLEX)


def test_criterion_01_sccc_axiom_suites():
    desc = ("compact-structure suite green: fdhilb dims<=8 and rel dims<=6, "
            "200 trials each, rel tol 1e-9, under 30 s")
    t0 = time.perf_counter()
    hil = run_suite("sccc", fdhilb(), trials=200, seed=101,
                    tolerance=1e-9, max_dim=8)
    rel = run_suite("sccc", rel_model(), trials=200, seed=102,
                    tolerance=1e-9, max_dim=6)
    elapsed = time.perf_counter() - t0
    ok = (hil.ok and rel.ok
          and hil.counts().get("fail", 0) == 0
          and rel.counts().get("fail", 0) == 0
          and elapsed < 30.0)
    record_criterion(1, desc, ok)
    assert ok, (hil.counts(), rel.counts(), elapsed)


def test_criterion_02_phase_witnesses():
    desc = ("phase pairs: 500 samples, all equality criteria agree and the "
            "scalar witnesses satisfy s.f = t.g with s o s~ = t o t~, 1e-9")
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(500):
        a, b = _objects(rng), _objects(rng)
        f = M.sample_morphism(rng, a, b)
        g = scalar_mult(M.sample_unit_scalar(rng), f)
        s, t = phase_witnesses(f, g)
        # the predicate returns only when the criteria agree, else it raises
        ok = ok and wequal_to(f, 1e-9)(g)
        ok = ok and equal(scalar_mult(s, f), scalar_mult(t, g), rel=1e-9)
        ok = ok and equal(compose(s, dagger(s)), compose(t, dagger(t)), rel=1e-9)
        if not ok:
            break
    record_criterion(2, desc, ok)
    assert ok


def test_criterion_03_hilbert_schmidt():
    desc = ("hs_inner = trace route (exact on integer samples, 1e-13 rel on "
            "continuous ones), state specialization, Tr(1_{I(+)I}) = 2, "
            "Born loop = density trace on 200 samples, 1e-9")
    rng = np.random.default_rng(303)
    ok = True
    # integer entries make both routes exactly representable
    for _ in range(200):
        a, b = _objects(rng), _objects(rng)
        shape = (dim(b), dim(a))
        fa = rng.integers(-4, 5, shape) + 1j * rng.integers(-4, 5, shape)
        ga = rng.integers(-4, 5, shape) + 1j * rng.integers(-4, 5, shape)
        f = Morphism(a, b, fa.astype(complex), COMPLEX)
        g = Morphism(a, b, ga.astype(complex), COMPLEX)
        ok = ok and scalar_value(hs_inner(f, g)) == scalar_value(
            trace(compose(dagger(f), g)))
    # float entries: both routes agree to summation-reassociation precision
    for _ in range(200):
        a, b = _objects(rng), _objects(rng)
        f = M.sample_morphism(rng, a, b)
        g = M.sample_morphism(rng, a, b)
        lhs = complex(scalar_value(hs_inner(f, g)))
        rhs = complex(scalar_value(trace(compose(dagger(f), g))))
        ok = ok and abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs), abs(rhs))
    for _ in range(200):
        a = _objects(rng)
        psi, phi = M.sample_morphism(rng, UNIT, a), M.sample_morphism(rng, UNIT, a)
        ok = ok and equal(hs_inner(psi, phi), compose(dagger(psi), phi), rel=1e-9)
    two = scalar_value(trace(identity(Oplus(UNIT, UNIT), COMPLEX)))
    ok = ok and two == 2
    for _ in range(200):
        a = Gen("A", int(rng.integers(2, 5)))
        psi = _unit_state(rng, a)
        v = _unit_state(rng, a)
        p = compose(v, dagger(v))
        rho = compose(psi, dagger(psi))
        got = float(scalar_value(born_prob(psi, p)).real)
        want = complex(scalar_value(trace(compose(p, rho))))
        ok = ok and abs(got - want.real) <= 1e-9 and abs(want.imag) <= 1e-9
    record_criterion(3, desc, ok)
    assert ok


def test_criterion_04_quotient_equivalence_and_prep_state():
    desc = ("quotient: three-way equality agreement on 1000 pairs, "
            "prep-state expected-fail on fdhilb with an (f, i.f) witness, "
            "pass on wproj:fdhilb, compact laws hold up to class equality")
    rng = np.random.default_rng(404)
    ok = True
    for k in range(1000):
        a, b = _objects(rng), _objects(rng)
        f = M.sample_morphism(rng, a, b)
        if k % 3 == 0:
            g = scalar_mult(M.sample_unit_scalar(rng), f)
        elif k % 3 == 1:
            g = scalar_mult(M.scalar(complex(rng.uniform(0.25, 3.0))), f)
        else:
            g = M.sample_morphism(rng, a, b)
        wequal(f, g)  # returns only when the criteria agree, else it raises
    prep_plain = run_suite("prep-state", M, trials=100, seed=404)
    names = {r.check_name: r for r in prep_plain.results}
    ok = ok and all(r.status == "expected-fail" for r in prep_plain.results)
    w = names["doubles-determine-morphisms"].witness
    f = deserialize_morphism(w["f"], M)
    g = deserialize_morphism(w["g"], M)
    ok = ok and equal(g, scalar_mult(scalar(1j, COMPLEX), f)) and not equal(f, g)
    prep_quot = run_suite("prep-state", WProjModel(fdhilb()), trials=100, seed=404)
    ok = ok and all(r.status == "pass" for r in prep_quot.results)
    laws = run_suite("wproj", fdhilb(), trials=100, seed=405, max_dim=4)
    ok = ok and laws.ok and laws.counts().get("fail", 0) == 0
    record_criterion(4, desc, ok)
    assert ok


def test_criterion_05_block_sum_no_go():
    desc = ("block sums break on phase classes: rotated pairing and oplus "
            "witnesses each differ by at least 0.5 entrywise")
    w = oplus_illdefined_witness(np.pi / 2)
    ok = w["pairing_gap"] >= 0.5 and w["oplus_gap"] >= 0.5
    # direct reconstruction: double(1 (+) i) vs double(1 (+) 1)
    one = scalar(1.0, COMPLEX)
    eye = direct_sum(one, one)
    rot = direct_sum(one, scalar(1j, COMPLEX))
    gap = np.max(np.abs(double(rot).array - double(eye).array))
    ok = ok and gap >= 0.5
    record_criterion(5, desc, ok)
    assert ok, w


def test_criterion_06_derived_sum():
    desc = ("derived sum = entrywise sum on 1000 pairs (1e-9), "
            "commutative-monoid laws, zero annihilates compositions exactly")
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(1000):
        a, b = _objects(rng), _objects(rng)
        f = M.sample_morphism(rng, a, b)
        g = M.sample_morphism(rng, a, b)
        ok = ok and np.allclose(derived_sum(f, g).array,
                                f.array + g.array, atol=1e-9)
    for _ in range(200):
        a, b = _objects(rng), _objects(rng)
        f = M.sample_morphism(rng, a, b)
        g = M.sample_morphism(rng, a, b)
        h = M.sample_morphism(rng, a, b)
        z = zeros(a, b, COMPLEX)
        ok = ok and equal(derived_sum(f, g), derived_sum(g, f), rel=1e-9)
        ok = ok and equal(derived_sum(derived_sum(f, g), h),
                          derived_sum(f, derived_sum(g, h)), rel=1e-9)
        ok = ok and equal(derived_sum(f, z), f, rel=1e-9)
        c = _objects(rng)
        ok = ok and np.array_equal(
            compose(zeros(b, c, COMPLEX), f).array, zeros(a, c, COMPLEX).array)
        ok = ok and np.array_equal(
            compose(f, zeros(c, a, COMPLEX)).array, zeros(c, b, COMPLEX).array)
    record_criterion(6, desc, ok)
    assert ok


def test_criterion_07_born_axioms_and_equivalence():
    desc = ("block additivity of the valuation (nu=1 plain, nu=1/2 quotient) "
            "on 500 samples; diagonal, linearity, block-trace and norm-form "
            "axioms green on fdhilb and wproj:fdhilb; the three equivalence "
            "verdicts agree and all break under the corrupted trace")
    rng = np.random.default_rng(707)
    ok = True
    quot = WProjModel(fdhilb())
    for _ in range(500):
        d = decomposition(Gen("A", int(rng.integers(1, 4))),
                          Gen("B", int(rng.integers(1, 4))))
        f = M.sample_morphism(rng, d.whole, d.whole)
        ok = ok and check_born_decomposition(M, f, d, Fraction(1))
        ok = ok and check_born_decomposition(quot, f, d, Fraction(1, 2))
    for model in (M, quot):
        for legs, seed in ((("diagonal-axiom", "diagonal-axiom-derived-sum"), 77),
                           (("trace-linearity", "sum-trace-vs-block-trace"), 78),
                           (("norm-block-decomposition",), 79)):
            batch = _run_legs(legs, model, 60, seed, None, None)
            ok = ok and all(r.status == "pass" for r in batch)
        results = {r.check_name: r for r in
                   run_suite("equivalence", model, trials=30, seed=80).results}
        honest = results["axiom-legs-agree"]
        control = results["axiom-legs-agree-corrupted-control"]
        ok = ok and honest.status == "pass"
        ok = ok and all(honest.witness["verdicts"].values())
        ok = ok and control.status == "expected-fail"
        ok = ok and not any(control.witness["verdicts"].values())
    record_criterion(7, desc, ok)
    assert ok


def test_criterion_08_abstract_integers():
    desc = "scalar sums: 1+1 = 2 at nu=1 and 1+1 = sqrt(2) at nu=1/2, 1e-12"
    one = M.scalar(1.0 + 0j)
    got_two = complex(scalar_value(scalar_sum(M, one, one)))
    got_root = complex(scalar_value(scalar_sum(M, one, one, Fraction(1, 2))))
    ok = (abs(got_two - 2.0) <= 1e-12
          and abs(got_root - np.sqrt(2.0)) <= 1e-12)
    two_trace = complex(scalar_value(trace(identity(Oplus(UNIT, UNIT), COMPLEX))))
    ok = ok and abs(two_trace - 2.0) <= 1e-12
    record_criterion(8, desc, ok)
    assert ok, (got_two, got_root)


def test_criterion_09_teleportation():
    desc = ("teleportation: 100 random states, every corrected branch equals "
            "(1/2).input within 1e-9, branch weights ||psi||/4 summing to "
            "||psi||, phase classes preserved, under 5 s")
    rng = np.random.default_rng(909)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        psi = M.sample_morphism(rng, UNIT, Oplus(UNIT, UNIT))
        rep = run_teleportation(psi)
        counts = rep.counts()
        ok = ok and rep.ok and counts.get("fail", 0) == 0
        branches = [r for r in rep.results if r.check_name.startswith("branch-")]
        total = float(np.real(scalar_value(hs_norm_sq(psi))))
        probs = [r.witness["probability"] for r in branches]
        ok = ok and len(branches) == 4
        ok = ok and all(abs(p - total / 4) <= 1e-9 * max(1.0, total) for p in probs)
        ok = ok and abs(sum(probs) - total) <= 1e-9 * max(1.0, total)
        ok = ok and all(r.witness["phase_class_stable"] for r in branches)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    record_criterion(9, desc, ok)
    assert ok, elapsed


def test_criterion_10_deterministic_reports(tmp_path):
    desc = "fixed-seed CLI reruns emit byte-identical JSON reports"
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    cmd = [sys.executable, "-m", "sccckit", "verify", "wproj",
           "--model", "fdhilb", "--trials", "25", "--seed", "7",
           "--max-dim", "3", "--json"]
    ra = subprocess.run(cmd + [str(out_a)], capture_output=True, timeout=300)
    rb = subprocess.run(cmd + [str(out_b)], capture_output=True, timeout=300)
    ok = (ra.returncode == 0 and rb.returncode == 0
          and out_a.read_bytes() == out_b.read_bytes()
          and json.loads(out_a.read_text())["schema"] == 1)
    record_criterion(10, desc, ok)
    assert ok, (ra.stderr, rb.stderr)
