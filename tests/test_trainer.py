import math
import tracemalloc

import numpy as np
import pytest

from couplingflow import coupling as cp
from couplingflow import matcore as mc
from couplingflow import trainer as tr
from couplingflow.errors import DivergedRunError
from couplingflow.rng import stream

GAUSSIAN_ENTROPY_2D = 1.0 + math.log(2.0 * math.pi)  # differential entropy of N(0, I2) per point


def fd_grad(fn, params_flat, step=1e-6):
    g = np.zeros_like(params_flat)
    for i in range(len(params_flat)):
        old = params_flat[i]
        params_flat[i] = old + step
        up = fn()
        params_flat[i] = old - step
        dn = fn()
        params_flat[i] = old
        g[i] = (up - dn) / (2 * step)
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b) / (np.abs(b) + 1e-8))


# ---------------------------------------------------------------------------
# PLN model


def test_pln_model_zero_std_is_identity():
    model = tr.PlnModel(6, 3, 0.0, seed=0)
    assert np.allclose(model.as_matrix(), np.eye(6))
    z = np.random.default_rng(0).standard_normal((4, 6))
    out, _ = model.forward(z)
    assert np.allclose(out, z)


def test_pln_model_near_identity():
    d, std = 8, 1e-5
    model = tr.PlnModel(d, 2, std, seed=1)
    assert np.linalg.norm(model.as_matrix() - np.eye(d)) <= 2 * d * std


def test_pln_model_seed_determinism():
    a = tr.PlnModel(4, 2, 1e-3, seed=5)
    b = tr.PlnModel(4, 2, 1e-3, seed=5)
    assert np.array_equal(a.params, b.params)
    c = tr.PlnModel(4, 2, 1e-3, seed=6)
    assert not np.array_equal(a.params, c.params)


def test_pln_gradient_zero_at_optimum():
    model = tr.PlnModel(4, 2, 0.1, seed=2)
    z = np.random.default_rng(3).standard_normal((16, 4))
    target = model.as_matrix()
    grad = tr.pln_gradients(model, z, target)
    assert np.max(np.abs(grad)) <= 1e-10


def test_pln_gradient_hand_derived_1d():
    # single layer at identity init, d = 2, one sample, diagonal target
    model = tr.PlnModel(2, 1, 0.0, seed=0)
    z = np.array([[0.7, -1.3]])
    t1, t2 = 3.0, 0.5
    target = np.diag([t1, t2])
    tr.pln_gradients(model, z, target)
    z1, z2 = z[0]
    (ga, gd), (glogb, glogc, gloge1, gloge2) = model.grad_dense[0], model.grad_logs[0]
    assert abs(ga[0, 0] - (1 - t2) * z2 * z1) <= 1e-12
    assert abs(glogb - (1 - t2) * z2 * z2) <= 1e-12
    assert abs(gd[0, 0] - (1 - t1) * z1 * z2) <= 1e-12
    assert abs(glogc - (1 - t1) * z1 * z1) <= 1e-12
    assert abs(gloge1 - (1 - t1) * z1 * z1) <= 1e-12
    assert abs(gloge2 - (1 - t2) * z2 * z2) <= 1e-12


def test_pln_gradient_matches_finite_differences():
    model = tr.PlnModel(4, 2, 0.1, seed=4)
    rng = np.random.default_rng(5)
    z = rng.standard_normal((8, 4))
    target = rng.standard_normal((4, 4))
    analytic = tr.pln_gradients(model, z, target)
    fd = fd_grad(lambda: tr.pln_loss(model, z, target), model.params)
    assert rel_err(analytic, fd) <= 1e-4


def test_pln_mle_gradient_matches_finite_differences():
    model = tr.PlnModel(4, 2, 0.1, seed=6)
    rng = np.random.default_rng(7)
    z = rng.standard_normal((8, 4))

    def nll():
        y, _ = model.forward(z)
        return float(np.mean(0.5 * np.sum(y * y, axis=1)) - model.log_det())

    y, caches = model.forward(z)
    model.backward(y / z.shape[0], caches, logdet_coeff=-1.0)
    assert rel_err(model.grad.copy(), fd_grad(nll, model.params)) <= 1e-4


def test_pln_as_matrix_positive_det():
    model = tr.PlnModel(6, 3, 0.5, seed=8)
    sign, _ = np.linalg.slogdet(model.as_matrix())
    assert sign > 0
    z = np.random.default_rng(9).standard_normal((16, 6))
    assert np.max(np.abs(model.forward(z)[0] - z @ model.as_matrix().T)) <= 1e-12


@pytest.mark.parametrize("d, depth, seed", [(4, 1, 0), (6, 2, 1), (10, 3, 2), (16, 4, 3)])
def test_pln_as_matrix_folds_actnorm_exactly(d, depth, seed):
    # random blocks and diagonals, e = exp(logs) from about 0.3 to 3, so the
    # scaling that folds each actnorm into its coupling pair is exercised
    rng = np.random.default_rng(seed)
    model = tr.PlnModel(d, depth, 0.0, seed=seed)
    model.dense[:] = rng.standard_normal(model.dense.shape)
    model.logs[:] = rng.uniform(np.log(0.3), np.log(3.0), model.logs.shape)
    h = d // 2
    zero, eye = np.zeros((h, h)), np.eye(h)
    unfolded = np.eye(d)
    for (a, dm), diag in zip(model.dense, np.exp(model.logs)):
        lower = np.block([[eye, zero], [a, np.diag(diag[:h])]])
        upper = np.block([[np.diag(diag[h:2 * h]), dm], [zero, eye]])
        unfolded = np.diag(diag[2 * h:]) @ upper @ lower @ unfolded
    m = model.as_matrix()
    assert np.max(np.abs(m - unfolded)) <= 1e-12 * np.max(np.abs(unfolded))
    z = rng.standard_normal((32, d))
    ref = z @ m.T
    assert np.max(np.abs(model.forward(z)[0] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_pln_rejects_empty_batch():
    model = tr.PlnModel(4, 1, 0.0, seed=0)
    with pytest.raises(ValueError):
        tr.pln_gradients(model, np.zeros((0, 4)), np.eye(4))


def test_toeplitz_target_structure():
    t = tr.make_target_matrix("toeplitz_matrix", 6, seed=9)
    for k in range(-5, 6):
        diag = np.diagonal(t, offset=k)
        assert np.all(diag == diag[0])
    # entry (i, j) is value i - j + d - 1 of the target stream, as a loop builds it
    vals = stream(9, "pln-target", "toeplitz_matrix", 6).standard_normal(11)
    assert all(t[i, j] == vals[i - j + 5] for i in range(6) for j in range(6))
    # distribution is seed-deterministic
    assert np.array_equal(t, tr.make_target_matrix("toeplitz_matrix", 6, seed=9))


def test_train_pln_identity_target_converges():
    config = tr.TrainConfig(lr=1e-4, steps=8000, batch_size=128)
    record = tr.train_pln(config, d=4, n_layers=1, seed=0, target_matrix=np.eye(4))
    assert record.final["frobenius_error"] <= 1e-6


def test_train_pln_deterministic_traces():
    config = tr.TrainConfig(lr=1e-4, steps=300, batch_size=64)
    target = tr.make_target_matrix("gaussian_matrix", 4, seed=3)
    r1 = tr.train_pln(config, d=4, n_layers=2, seed=3, target_matrix=target)
    r2 = tr.train_pln(config, d=4, n_layers=2, seed=3, target_matrix=target)
    assert r1.metrics["loss"] == r2.metrics["loss"]
    assert r1.metrics["frobenius_error"] == r2.metrics["frobenius_error"]


def test_train_pln_loss_moving_median_non_increasing():
    config = tr.TrainConfig(lr=1e-4, steps=6000, batch_size=128, log_interval=20)
    record = tr.train_pln(config, d=4, n_layers=2, seed=1, target_matrix=np.eye(4))
    losses = np.array(record.metrics["loss"])
    window = 5  # 100 steps of logging at interval 20
    medians = [np.median(losses[i : i + window]) for i in range(0, len(losses) - window, window)]
    diffs = np.diff(medians)
    assert np.all(diffs <= 1e-8 + 0.05 * np.abs(np.array(medians[:-1])))


def test_train_pln_divergence_detection():
    config = tr.TrainConfig(lr=1e30, steps=200, batch_size=16)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergedRunError) as exc_info:
            tr.train_pln(config, d=4, n_layers=2, seed=0,
                         target_matrix=tr.make_target_matrix("gaussian_matrix", 4, seed=0))
    assert exc_info.value.record is not None


def test_pln_batch_enters_only_through_gram():
    # train_pln runs each step on the QR factor r of z in place of z
    model = tr.PlnModel(6, 2, 0.3, seed=10)
    rng = np.random.default_rng(11)
    z = rng.standard_normal((64, 6))
    target = rng.standard_normal((6, 6))
    r = np.linalg.qr(z, mode="r")
    scale = r.shape[0] / z.shape[0]  # both functions average over their rows
    full = tr.pln_gradients(model, z, target)
    assert rel_err(tr.pln_gradients(model, r, target) * scale, full) <= 1e-8
    full_loss = tr.pln_loss(model, z, target)
    assert abs(tr.pln_loss(model, r, target) * scale - full_loss) <= 1e-12 * full_loss


@pytest.mark.parametrize("batch_size", [64, 2])
def test_train_pln_logs_full_batch_loss(batch_size):
    config = tr.TrainConfig(lr=1e-3, steps=5, batch_size=batch_size, log_interval=5)
    target = tr.make_target_matrix("gaussian_matrix", 6, seed=12)
    record = tr.train_pln(config, d=6, n_layers=2, seed=12, target_matrix=target)
    model = tr.PlnModel(6, 2, tr.PLN_INIT_STD, seed=12)
    z0 = stream(12, "pln-batches", 6, 2).standard_normal((batch_size, 6))
    first = tr.pln_loss(model, z0, target)
    assert abs(record.metrics["loss"][0] - first) <= 1e-12 * first


# ---------------------------------------------------------------------------
# coupling stack / MLP regression


def test_stack_regression_gradients_match_fd():
    layers = tr._coupling_stack(4, 1, 6, activation="tanh", seed=10)
    params = tr._stack_params(layers)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 4))
    y_tgt = np.tanh(x)

    def loss():
        out, _, _ = tr._stack_forward(layers, x)
        return float(np.mean(np.sum((out - y_tgt) ** 2, axis=1)) / 4)

    out, caches, _ = tr._stack_forward(layers, x)
    grads = tr._stack_backward(layers, caches, 2 * (out - y_tgt) / (x.shape[0] * 4))
    worst = 0.0
    for p, g in zip(params, grads):
        fd = fd_grad(loss, p.ravel())
        worst = max(worst, rel_err(g.ravel(), fd))
    assert worst <= 1e-4


def test_stack_mle_gradients_match_fd():
    layers = tr._coupling_stack(4, 1, 6, activation="relu", seed=12)
    params = tr._stack_params(layers)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((6, 4))

    def nll():
        y, _, ld = tr._stack_forward(layers, x)
        return tr._nll(y, ld)

    y, caches, ld = tr._stack_forward(layers, x)
    grads = tr._stack_backward(layers, caches, y / x.shape[0],
                               logdet_coeff=-1.0 / x.shape[0])
    worst = 0.0
    for p, g in zip(params, grads):
        fd = fd_grad(nll, p.ravel())
        worst = max(worst, rel_err(g.ravel(), fd))
    assert worst <= 1e-4


def test_regression_identity_target_both_architectures():
    config = tr.TrainConfig(lr=1e-3, steps=800, batch_size=64, log_interval=100)
    for arch in ("coupling_stack", "small_mlp"):
        record = tr.train_coupling_regression(config, 4, "linear", arch, seed=14)
        # the linear target here is the identity-representable case only for
        # near-linear nets; accept a loose drop from the initial loss
        assert record.final["loss"] <= record.metrics["loss"][0]


def test_regression_relu_target_mlp_learns():
    config = tr.TrainConfig(lr=1e-3, steps=1500, batch_size=64, log_interval=100)
    rec = tr.train_coupling_regression(config, 4, "elementwise_relu", "small_mlp", seed=15)
    assert rec.final["loss"] < 0.1 * rec.metrics["loss"][0]


def test_stack_forward_logdet_matches_coupling_module():
    layers = tr._coupling_stack(4, 2, 6, activation="tanh", seed=16)
    seq = cp.sequence(layers, ambient_dim=4)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 4))
    y, _, logdet = tr._stack_forward(layers, x)
    # the evaluation-only walk does the same arithmetic, so it is bitwise equal
    ey, elogdet = cp.apply_with_log_det(seq, x)
    assert np.array_equal(ey, y) and np.array_equal(elogdet, logdet)


def test_mle_eval_forward_keeps_no_cache():
    # the 512-row eval batch of train_nvp_mle on its default stack; with every
    # net's backward cache kept (_stack_forward) it peaks near 24 MB
    layers = tr._coupling_stack(4, 3, 128, activation="relu", seed=18)
    seq = cp.sequence(layers, ambient_dim=4)
    x = tr._padded_batch("four_gaussians", "gaussian", 512, np.random.default_rng(19))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cp.apply_with_log_det(seq, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("activation, fn", [("relu", lambda u: np.maximum(u, 0.0)),
                                            ("tanh", np.tanh)])
def test_mlp_cache_holds_activations_only(activation, fn):
    net = cp.mlp_init([3, 5, 7, 2], activation=activation, output_transform="exptanh",
                      rng=np.random.default_rng(20))
    x = np.random.default_rng(21).standard_normal((4, 3))
    out, cache = cp.mlp_forward(net, x)
    assert set(cache) == {"hidden", "out"}
    hidden = cache["hidden"]
    assert len(hidden) == len(net.weights) + 1 and hidden[0] is x
    expect = x
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        expect = expect @ w + b
        if k < len(net.weights) - 1:
            expect = fn(expect)
        assert np.array_equal(hidden[k + 1], expect)
    assert cache["out"] is out and np.array_equal(out, np.exp(np.tanh(hidden[-1])))


# ---------------------------------------------------------------------------
# datasets


def dataset_sample(kind, n, seed):
    return tr._dataset_batch(kind, n, stream(seed, "dataset", kind))


def test_four_gaussians_component_frequencies():
    s = dataset_sample("four_gaussians", 8000, seed=18)
    assert s.shape == (8000, 2)
    quadrant = (s[:, 0] > 0).astype(int) * 2 + (s[:, 1] > 0).astype(int)
    counts = np.bincount(quadrant, minlength=4)
    assert np.max(np.abs(counts / 8000 - 0.25)) <= 3 * np.sqrt(0.25 * 0.75 / 8000)


def test_dataset_determinism():
    for kind in ("four_gaussians", "swissroll", "two_moons", "checkerboard"):
        a = dataset_sample(kind, 500, seed=19)
        b = dataset_sample(kind, 500, seed=19)
        assert np.array_equal(a, b)
        assert a.shape == (500, 2)


def test_two_moons_raw_bounding_box():
    rng = np.random.default_rng(20)
    raw = tr.two_moons_raw(1000, rng)
    assert np.all(raw[:, 0] >= -1.5) and np.all(raw[:, 0] <= 2.5)
    assert np.all(raw[:, 1] >= -1.0) and np.all(raw[:, 1] <= 1.5)


def test_dataset_rejects_unknown():
    with pytest.raises(ValueError):
        dataset_sample("spiral", 10, seed=0)


# ---------------------------------------------------------------------------
# MLE harnesses (smoke scale; acceptance runs the full criteria)


def test_nvp_mle_gaussian_sanity_short():
    config = tr.TrainConfig(lr=1e-3, steps=400, batch_size=128, log_interval=200)
    record = tr.train_nvp_mle("gaussian", "none", config, seed=21, n_pairs=2, hidden=32)
    # near-identity init starts close to the true entropy and stays finite
    assert abs(record.final["nll"] - GAUSSIAN_ENTROPY_2D) <= 0.5


def test_nvp_mle_records_condition_numbers():
    config = tr.TrainConfig(lr=1e-3, steps=200, batch_size=64, log_interval=100)
    record = tr.train_nvp_mle("four_gaussians", "gaussian", config, seed=22,
                              n_pairs=2, hidden=32)
    assert "cond_log10_median" in record.metrics
    assert all(np.isfinite(v) for v in record.metrics["cond_log10_median"])


def test_nvp_mle_zero_padding_notes_dequantization():
    config = tr.TrainConfig(lr=1e-3, steps=100, batch_size=64, log_interval=100)
    record = tr.train_nvp_mle("four_gaussians", "zero", config, seed=23,
                              n_pairs=2, hidden=32)
    assert any("dequantized" in note for note in record.notes)


def test_nvp_mle_one_jacobian_and_one_svd_per_probe(monkeypatch):
    # one batched Jacobian and one stacked SVD per probe, not one per probe row
    calls = {"jacobian": 0, "svd_small": 0}
    for module, name in ((cp, "jacobian"), (mc, "svd_small")):
        def counting(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    config = tr.TrainConfig(lr=1e-3, steps=50, batch_size=64, log_interval=25)
    tr.train_nvp_mle("four_gaussians", "zero", config, seed=28, n_pairs=2, hidden=32)
    assert calls == {"jacobian": 3, "svd_small": 3}  # steps 0 and 25, and the final


def test_nvp_mle_records_spike_above_start():
    # lr 1e-3 run whose eval NLL falls to -2.58 and then spikes to ~24 at the end
    config = tr.TrainConfig(lr=1e-3, steps=100, batch_size=128, log_interval=25)
    record = tr.train_nvp_mle("four_gaussians", "zero", config, seed=438468767)
    nll, batch_max = record.metrics["nll"], record.metrics["nll_batch_max"]
    assert len(batch_max) == len(nll) == 5
    assert record.final["nll"] > nll[0]
    assert any(note.startswith("warning: final eval NLL") for note in record.notes)
    # the last interval's training batches already show the rise
    assert batch_max[-1] > max(batch_max[2:-1]) + 10.0


def test_nvp_mle_log_every_step_with_large_probe():
    # the probe is one stacked SVD over all its rows, however many
    config = tr.TrainConfig(lr=1e-3, steps=2, batch_size=32, log_interval=1)
    record = tr.train_nvp_mle("four_gaussians", "gaussian", config, seed=29,
                              n_pairs=1, hidden=16, probe_size=128)
    assert all(np.isfinite(v) for v in record.metrics["cond_log10_max"])
    # logs at steps 0, 1 and 2; the final one runs no step and repeats step 1's batch
    batch_max = record.metrics["nll_batch_max"]
    assert record.metrics["step"] == [0, 1, 2]
    assert batch_max[2] == batch_max[1]


def test_mle_linear_gaussian_check_small():
    config = tr.TrainConfig(lr=2e-3, steps=2500, batch_size=512)
    fitted, sample_cov, gap = tr.mle_linear_gaussian_check(np.eye(4), 20000,
                                                           config=config, seed=24)
    # fitted covariance is symmetric PSD by construction
    assert np.allclose(fitted, fitted.T)
    assert np.min(np.linalg.eigvalsh(fitted)) > 0
    assert gap <= 0.12


def test_sample_covariance_shrinks_with_more_samples():
    rng = np.random.default_rng(25)
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T + 0.5 * np.eye(4)
    chol = np.linalg.cholesky(sigma)
    gaps = []
    for n in (2000, 8000):
        draws = np.random.default_rng(26).standard_normal((n, 4)) @ chol.T
        gaps.append(np.linalg.norm(draws.T @ draws / n - sigma))
    assert gaps[1] <= gaps[0] / np.sqrt(4.0) * 2.5  # ~sqrt(n) decay, generous slack


def test_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(lr=0.0)
