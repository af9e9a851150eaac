"""Each checker accepts the program's real output and rejects a deliberately
corrupted copy of it; the smoke test runs one round of every workload.

    python3 -m pytest perfbench -q
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from couplingflow import (certificates, coupling, decomposer, matcore, metrics, trainer,
                          universal)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def replace_layer(seq, k, **fields):
    layers = list(seq.layers)
    layers[k] = SimpleNamespace(**{**{f: getattr(layers[k], f) for f in ("side", "dense", "diag")},
                                   **fields})
    return SimpleNamespace(layers=layers, ambient_dim=seq.ambient_dim)


def test_decomposition_checker(rng):
    target = workloads.gaussian_target(rng, 8)
    seq, round_trip = workloads.decompose_and_serialize(target)
    assert checks.check_decomposition(target, seq, round_trip) is None

    dense = seq.layers[3].dense.copy()
    dense[0, 0] += 1e-3
    perturbed = replace_layer(seq, 3, dense=dense)
    assert checks.check_decomposition(target, perturbed, round_trip)
    assert checks.check_decomposition(target, seq, perturbed)
    assert checks.check_decomposition(target, replace_layer(seq, 0, diag=-seq.layers[0].diag),
                                      round_trip)
    padding = [coupling.identity_layer(4)] * (checks.DECOMPOSE_BUDGET + 1 - len(seq))
    too_long = coupling.sequence(list(seq.layers) + padding)
    assert checks.check_decomposition(target, too_long, too_long)
    one_ulp = seq.layers[5].diag.copy()
    one_ulp[0] = np.nextafter(one_ulp[0], np.inf)
    assert checks.check_decomposition(target, seq, replace_layer(round_trip, 5, diag=one_ulp))


def test_permutation_checker(rng):
    p = rng.permutation(16)
    seq = decomposer.permutation_layers(p)
    assert checks.check_permutation_layers(p, seq) is None
    assert checks.check_permutation_layers(p[::-1], seq)
    dense = seq.layers[0].dense.copy()
    dense[dense != 0] *= 2.0
    assert checks.check_permutation_layers(p, replace_layer(seq, 0, dense=dense))


def test_certificate_checkers(rng):
    d = 6
    cert = certificates.certify_not_a4(workloads.hard_instance(rng, d), d)
    assert checks.check_hard_certificate(cert, d) is None
    assert checks.check_hard_certificate(
        dataclasses.replace(cert, schur_spectrum=1.01 * cert.schur_spectrum), d)
    doubled = cert.schur_spectrum.copy()
    doubled[1] = doubled[0]
    assert checks.check_hard_certificate(dataclasses.replace(cert, schur_spectrum=doubled), d)
    assert checks.check_hard_certificate(dataclasses.replace(cert, verdict="inconclusive"), d)

    member = certificates.certify_not_a4(workloads.four_matrix_member(rng, d), d)
    assert checks.check_member_certificate(member) is None
    assert checks.check_member_certificate(dataclasses.replace(member, verdict="not_in_a4"))


def test_evaluate_checker(rng):
    target = workloads.gaussian_target(rng, 8)
    _, seq = workloads.decompose_and_serialize(target)
    x = rng.standard_normal((32, 8))
    y = coupling.apply(seq, x)
    x_back = coupling.invert(seq, y)
    assert checks.check_evaluate(target, x, y, x_back) is None
    bad = y.copy()
    bad[3, 2] += 1e-3
    assert checks.check_evaluate(target, x, bad, x_back)
    assert checks.check_evaluate(target, x, y, x_back + 1e-3)


def test_pln_checker(rng):
    target = rng.standard_normal((4, 4))
    config = trainer.TrainConfig(lr=1e-2, steps=200, batch_size=64, log_interval=50)
    record = trainer.train_pln(config, 4, 2, seed=3, target_matrix=target)
    losses = record.metrics["loss"]
    assert checks.check_pln(record.final, losses, target) is None
    wrong = dict(record.final, frobenius_error=1.01 * record.final["frobenius_error"])
    assert checks.check_pln(wrong, losses, target)
    assert checks.check_pln(record.final, losses[::-1], target)
    flipped = np.array(record.final["recovered_matrix"])
    flipped[0] = -flipped[0]
    frob = float(np.sum((flipped - target) ** 2)) / 16
    assert "determinant" in checks.check_pln(
        dict(record.final, recovered_matrix=flipped, frobenius_error=frob), losses, target)


def test_gradient_checker(rng):
    grad = rng.standard_normal(10)
    assert checks.check_gradients(grad, grad + 1e-9) is None
    off = grad.copy()
    off[4] += 1e-2
    assert checks.check_gradients(grad, off)


def test_mle_checkers():
    log = {"step": [0, 25, 50], "nll": [5.0, 3.0, 2.0], "cond_log10_median": [0.1, 0.5, 1.0],
           "cond_log10_max": [0.2, 0.9, 1.5]}
    final = {"nll": 2.0, "cond_log10_median": 1.0}
    assert checks.check_mle(log, final) is None
    assert checks.check_mle(log, dict(final, nll=5.5))
    assert checks.check_mle(dict(log, nll=[5.0, np.nan, 2.0]), final)
    assert checks.check_mle(dict(log, cond_log10_max=[0.2, -0.1, 1.5]), final)
    assert checks.check_padding_gap({"cond_log10_median": 2.0}, {"cond_log10_median": 0.9}) is None
    assert checks.check_padding_gap({"cond_log10_median": 0.9}, {"cond_log10_median": 2.0})


def test_plan_checker(rng):
    a = rng.standard_normal((40, 2))
    b = a + 0.01 * rng.standard_normal((40, 2))
    plan = metrics.empirical_wasserstein(a, b, metrics.W2)
    assert checks.check_plan(a, b, plan.assignment, plan.cost, "w2") is None
    repeated = plan.assignment.copy()
    repeated[1] = repeated[0]
    assert "permutation" in checks.check_plan(a, b, repeated, plan.cost, "w2")
    assert checks.check_plan(a, b, plan.assignment, plan.cost * 1.001, "w2")
    worse = np.roll(np.arange(40), 1)
    assert "natural" in checks.check_plan(a, b, worse, checks.matched_cost(a, b, worse, "w2"),
                                          "w2")


def test_padded_checker(rng):
    phi = universal.AffineTransport(shift=np.array([0.5, -0.3]),
                                    linear=np.array([[1.2, 0.3], [0.0, 0.8]]))
    data = rng.standard_normal((64, 2))
    out = universal.build_padded_net(phi, 6.0).apply(np.hstack([data, np.zeros_like(data)]))
    expected = data @ phi.linear.T + phi.shift
    assert checks.check_padded(out, expected) is None
    leaked = out.copy()
    leaked[5, 3] = 1e-6
    assert "padding" in checks.check_padded(leaked, expected)
    assert checks.check_padded(out, expected + 1e-6)


def test_transport_checkers(rng):
    assert checks.check_lattice_schedule({0.5: 0.2, 0.25: 0.1, 0.125: 0.05}) is None
    assert checks.check_lattice_schedule({0.5: 0.2, 0.25: 0.1, 0.125: 0.11})
    assert checks.check_selector(0.4, 0.01, 0.5) is None
    assert checks.check_selector(0.6, 0.01, 0.5)
    for metric, name in ((metrics.W1, "w1"), (metrics.W2, "w2")):
        a, b = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        cost = metrics.empirical_wasserstein(a, b, metric).cost
        assert checks.check_exact_distance(cost, a, b, name) is None
        assert checks.check_exact_distance(cost + 1e-6, a, b, name)


def test_tracer_counts_and_restores(rng):
    original = coupling.as_matrix
    with tracing.Tracer() as tracer:
        assert decomposer.as_matrix is not original
        decomposer.decompose(workloads.gaussian_target(rng, 8))
        certificates.certify_not_a4(workloads.hard_instance(rng, 5), 5)
    assert decomposer.as_matrix is original and coupling.as_matrix is original
    assert matcore.lup.__name__ == "lup" and not hasattr(matcore.lup, "__wrapped__")
    assert tracer.calls["decomposer.decompose"] == 1
    assert tracer.calls["decomposer.triangular_layers"] == 2
    assert tracer.calls["coupling.as_matrix"] >= 1
    # one factorization per column of the top-left block, one for the inverse
    assert tracer.nested["certificates.lup_per_certify"] == 5 + 1
    metrics_out = tracer.metrics(rounds=1)
    assert set(metrics_out) == {f"{n}.{kind}" for n in tracing.traced_names()
                                for kind in ("calls", "self_ms")} | set(tracing.NESTED)
    assert all(v["value"] >= 0.0 for v in metrics_out.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke(name):
    result, report = run.run_workload(name, seed=5, seconds=0.0, trace=False, setup_repeats=1)
    assert result["correct"], report["problems"]
    assert report["rounds"] == 1 and result["attempted"] > result["failed"]
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
                                      "peak_rss_mb"}
    assert all(v["value"] > 0 for v in result["metrics"].values())
