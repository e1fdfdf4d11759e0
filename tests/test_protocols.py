"""Measurements and teleportation, checked against straight linear algebra."""

import numpy as np
import pytest

from sccckit import (
    COMPLEX,
    Gen,
    MeasurementSpec,
    Morphism,
    TypeMismatch,
    UNIT,
    compose,
    decomposition,
    fdhilb,
    born_prob,
    dagger,
    hs_norm_sq,
    qubit,
    random_unitary,
    rel_model,
    run_teleportation,
    scalar_value,
)
from sccckit import protocols
from sccckit.cli import main
from sccckit.errors import NotUnitary

M = fdhilb()

# the four corrections, written out once
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
BETAS = [np.eye(2), X, Z, X @ Z]


def test_measurement_setup_rows_are_unitary_by_numpy():
    t, betas = protocols.bell_teleportation_setup()
    arr = t.array
    assert arr.shape == (4, 4)
    assert np.allclose(arr.conj().T @ arr, np.eye(4), atol=1e-12)
    for b, want in zip(betas, BETAS):
        assert np.allclose(b.array, want)


def test_teleport_branches_close_to_hand_formula():
    # every raw branch is (1/2) beta_i psi; derived by contracting
    # (<beta_i| (x) 1)(psi (x) |Phi>) with |Phi> = (1/sqrt 2) vec(1)
    rng = np.random.default_rng(61)
    t, _ = protocols.bell_teleportation_setup()
    for _ in range(10):
        psi = M.sample_morphism(rng, UNIT, qubit())
        outs = protocols._teleport_branches(psi, t)
        for i, out in enumerate(outs):
            want = 0.5 * BETAS[i] @ psi.array
            assert np.allclose(out.array, want, atol=1e-9)


def test_teleportation_report_is_green():
    rep = run_teleportation()
    assert rep.ok
    assert rep.counts() == {"pass": 5, "fail": 0, "expected-fail": 1}


def test_teleportation_of_random_states():
    rng = np.random.default_rng(62)
    for _ in range(5):
        psi = M.sample_morphism(rng, UNIT, qubit())
        rep = run_teleportation(psi)
        assert rep.ok
        branch = rep.results[0]
        total = float(scalar_value(hs_norm_sq(psi)).real)
        assert branch.witness["probability"] == pytest.approx(total / 4, rel=1e-9)


def test_teleportation_rejects_bad_inputs():
    with pytest.raises(TypeMismatch):
        run_teleportation(Morphism(UNIT, Gen("A", 3),
                                   np.zeros((3, 1), dtype=complex), COMPLEX))
    with pytest.raises(TypeMismatch):
        run_teleportation(model=rel_model())


def _decomp_for(dims):
    # mirror the block naming used by the unitary sampler
    parts = [UNIT if d == 1 else Gen(f"A{i}", d) for i, d in enumerate(dims)]
    return decomposition(*parts)


def test_measurement_spec_invariants():
    # sum_i P_i = 1, P_i P_j = delta_ij P_i, probabilities sum to the weight
    rng = np.random.default_rng(63)
    for dims in ([2, 2], [1, 3], [2, 1, 1]):
        u = random_unitary(M, dims, seed=int(rng.integers(2 ** 31)))
        spec = MeasurementSpec.from_unitary(u, _decomp_for(dims))
        n = sum(dims)
        total = np.zeros((n, n), dtype=complex)
        projectors = [compose(dagger(spec.branch_map(i)), spec.branch_map(i))
                      for i in range(len(spec))]
        for i, pi in enumerate(projectors):
            total += pi.array
            for j, pj in enumerate(projectors):
                prod = compose(pi, pj)
                want = pi.array if i == j else np.zeros_like(pi.array)
                assert np.allclose(prod.array, want, atol=1e-9)
        assert np.allclose(total, np.eye(n), atol=1e-9)
        psi = M.sample_morphism(rng, UNIT, u.dom)
        probs = [float(scalar_value(born_prob(psi, p)).real) for p in projectors]
        weight = float(scalar_value(hs_norm_sq(psi)).real)
        assert sum(probs) == pytest.approx(weight, rel=1e-9)


def test_measurement_spec_rejects_non_unitary():
    d = decomposition(UNIT, UNIT)
    bad = Morphism(qubit(), d.whole, np.array([[1, 1], [0, 1]], dtype=complex),
                   COMPLEX)
    with pytest.raises(NotUnitary):
        MeasurementSpec.from_unitary(bad, d)


def test_classical_communication_tensors_each_branch():
    rng = np.random.default_rng(65)
    a = Gen("A", 2)
    t0 = M.sample_morphism(rng, Gen("D", 2), Gen("B", 2))
    t1 = M.sample_morphism(rng, Gen("D", 2), Gen("C", 3))
    bt = protocols.BranchTuple((t0, t1))
    out = protocols.cc_map(a, bt)
    for before, after in zip(bt, out):
        assert np.allclose(after.array, np.kron(np.eye(2), before.array))


def test_qubit_and_weighted_bit_differ():
    w = protocols.weighted_bit_collapse_witness()
    assert w["probabilities_agree"]
    assert not w["states_equal"]
    assert not w["states_phase_equivalent"]


def _collapse_status(report):
    (result,) = [r for r in report.results if r.check_name == "weighted-bit-collapse"]
    return result.status


def test_weighted_bit_collapse_is_judged(monkeypatch):
    # expected-fail only while the probabilities agree on two states that are
    # not phase-equivalent; a witness that breaks either condition fails
    healthy = protocols.weighted_bit_collapse_witness()
    assert _collapse_status(run_teleportation()) == "expected-fail"
    for key, value in (("states_phase_equivalent", True), ("probabilities_agree", False)):
        monkeypatch.setattr(protocols, "weighted_bit_collapse_witness",
                            lambda key=key, value=value: {**healthy, key: value})
        report = run_teleportation()
        assert _collapse_status(report) == "fail"
        assert not report.ok


def _containers(tree):
    """Every dict and list of a witness, the witness itself included."""
    yield tree
    for child in (tree.values() if isinstance(tree, dict) else tree):
        if isinstance(child, (dict, list)):
            yield from _containers(child)


def test_weighted_bit_collapse_witness_is_built_once_and_copied():
    first = protocols.weighted_bit_collapse_witness()
    built = protocols._weighted_bit_collapse_witness.cache_info().misses
    fresh = protocols._weighted_bit_collapse_witness.__wrapped__()
    memo = protocols._weighted_bit_collapse_witness()
    # no dict or list of a caller's witness is one of the memo's
    assert not ({id(c) for c in _containers(first)}
                & {id(c) for c in _containers(memo)})
    for node in list(_containers(first)):
        if isinstance(node, dict):
            node["mutated"] = True
        else:
            if node and isinstance(node[0], list):
                node[0][0] = -1.0
            node.append(None)
    first["psi"]["entries"].clear()
    first["states_equal"] = True
    second = protocols.weighted_bit_collapse_witness()
    assert second is not first
    assert second == fresh
    assert protocols._weighted_bit_collapse_witness() == fresh
    assert protocols._weighted_bit_collapse_witness.cache_info().misses == built <= 1


def _corrections_rotated(setup=protocols.bell_teleportation_setup):
    # every branch gets the next branch's Pauli correction
    t, betas = setup()
    return t, betas[1:] + betas[:1]


@pytest.mark.parametrize("state", ["[[1,0],[0.5,0]]", "[[1e-100,0],[5e-101,0]]",
                                   "[[1.5e-154,0],[0,0]]"])
def test_wrong_corrections_fail_at_any_weight(monkeypatch, capsys, state):
    # verdicts are relative to the input's weight, so no absolute floor lets
    # a light state pass whatever the pipeline computes
    monkeypatch.setattr(protocols, "bell_teleportation_setup", _corrections_rotated)
    assert main(["protocol", "teleport", "--state", state]) == 1
    assert capsys.readouterr().out.count(" fail  branch-") == 4


@pytest.mark.parametrize("state", ["[[1.5e-154,0],[0,0]]", "[[0,1.1e-154],[1.1e-154,3e-160]]",
                                   "[[1.34e154,0],[0,0]]", "[[0,9.4e153],[9.4e153,0]]"])
def test_healthy_states_at_both_ends_of_the_accepted_weights_pass(capsys, state):
    assert main(["protocol", "teleport", "--state", state]) == 0
    assert "5 pass, 0 fail, 1 expected-fail" in capsys.readouterr().out


def test_teleportation_refuses_a_weightless_input():
    with pytest.raises(TypeMismatch):
        run_teleportation(Morphism(UNIT, qubit(), np.zeros((2, 1)), COMPLEX))
