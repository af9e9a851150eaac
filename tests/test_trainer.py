import numpy as np
import pytest

from couplingflow import coupling as cp
from couplingflow import matcore as mc
from couplingflow import trainer as tr
from couplingflow.errors import DivergedRunError
from couplingflow.rng import stream


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


def test_init_pln_zero_std_is_identity():
    model = tr.init_pln(6, 3, 0.0, seed=0)
    assert np.allclose(model.as_matrix(), np.eye(6))
    z = np.random.default_rng(0).standard_normal((4, 6))
    out, _ = model.forward(z)
    assert np.allclose(out, z)


def test_init_pln_near_identity():
    d, std = 8, 1e-5
    model = tr.init_pln(d, 2, std, seed=1)
    assert np.linalg.norm(model.as_matrix() - np.eye(d)) <= 2 * d * std


def test_init_pln_seed_determinism():
    a = tr.init_pln(4, 2, 1e-3, seed=5)
    b = tr.init_pln(4, 2, 1e-3, seed=5)
    assert np.array_equal(a.params, b.params)
    c = tr.init_pln(4, 2, 1e-3, seed=6)
    assert not np.array_equal(a.params, c.params)


def test_pln_gradient_zero_at_optimum():
    model = tr.init_pln(4, 2, 0.1, seed=2)
    z = np.random.default_rng(3).standard_normal((16, 4))
    target = model.as_matrix()
    grad = tr.pln_gradients(model, z, target)
    assert np.max(np.abs(grad)) <= 1e-10


def test_pln_gradient_hand_derived_1d():
    # single layer at identity init, d = 2, one sample, diagonal target
    model = tr.init_pln(2, 1, 0.0, seed=0)
    z = np.array([[0.7, -1.3]])
    t1, t2 = 3.0, 0.5
    target = np.diag([t1, t2])
    tr.pln_gradients(model, z, target)
    z1, z2 = z[0]
    g = model.grad_views[0]
    assert abs(g["A"][0, 0] - (1 - t2) * z2 * z1) <= 1e-12
    assert abs(g["logb"][0] - (1 - t2) * z2 * z2) <= 1e-12
    assert abs(g["D"][0, 0] - (1 - t1) * z1 * z2) <= 1e-12
    assert abs(g["logc"][0] - (1 - t1) * z1 * z1) <= 1e-12
    assert abs(g["loge"][0] - (1 - t1) * z1 * z1) <= 1e-12
    assert abs(g["loge"][1] - (1 - t2) * z2 * z2) <= 1e-12


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
    sign, _ = mc.slogdet(model.as_matrix())
    assert sign > 0


def test_pln_rejects_empty_batch():
    model = tr.PlnModel(4, 1, 0.0, seed=0)
    with pytest.raises(ValueError):
        tr.pln_gradients(model, np.zeros((0, 4)), np.eye(4))


def test_toeplitz_target_structure():
    t = tr.make_target_matrix("toeplitz_matrix", 6, seed=9)
    for k in range(-5, 6):
        diag = np.diagonal(t, offset=k)
        assert np.all(diag == diag[0])
    # distribution is seed-deterministic
    assert np.array_equal(t, tr.make_target_matrix("toeplitz_matrix", 6, seed=9))


def test_train_pln_identity_target_converges():
    config = tr.TrainConfig(lr=1e-4, steps=8000, batch_size=128, target_kind="identity")
    record = tr.train_pln(config, d=4, n_layers=1, seed=0)
    assert record.final["frobenius_error"] <= 1e-6


def test_train_pln_deterministic_traces():
    config = tr.TrainConfig(lr=1e-4, steps=300, batch_size=64)
    r1 = tr.train_pln(config, d=4, n_layers=2, seed=3)
    r2 = tr.train_pln(config, d=4, n_layers=2, seed=3)
    assert r1.metrics["loss"] == r2.metrics["loss"]
    assert r1.metrics["frobenius_error"] == r2.metrics["frobenius_error"]


def test_train_pln_loss_moving_median_non_increasing():
    config = tr.TrainConfig(lr=1e-4, steps=6000, batch_size=128,
                            target_kind="identity", log_interval=20)
    record = tr.train_pln(config, d=4, n_layers=2, seed=1)
    losses = np.array(record.metrics["loss"])
    window = 5  # 100 steps of logging at interval 20
    medians = [np.median(losses[i : i + window]) for i in range(0, len(losses) - window, window)]
    diffs = np.diff(medians)
    assert np.all(diffs <= 1e-8 + 0.05 * np.abs(np.array(medians[:-1])))


def test_train_pln_divergence_detection():
    config = tr.TrainConfig(lr=1e30, steps=200, batch_size=16)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergedRunError) as exc_info:
            tr.train_pln(config, d=4, n_layers=2, seed=0)
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
    record = tr.train_pln(config, d=6, n_layers=2, seed=12)
    model = tr.init_pln(6, 2, config.init_std, seed=12)
    z0 = stream(12, "pln-batches", 6, 2).standard_normal((batch_size, 6))
    target = tr.make_target_matrix(config.target_kind, 6, seed=12)
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
        y, _, ld = tr._stack_forward(layers, x, want_logdet=True)
        return tr._nll(y, ld)

    y, caches, ld = tr._stack_forward(layers, x, want_logdet=True)
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
    y, _, logdet = tr._stack_forward(layers, x, want_logdet=True)
    for i in range(3):
        assert np.max(np.abs(y[i] - cp.apply(seq, x[i]))) <= 1e-12
        assert abs(logdet[i] - cp.log_det_jacobian(seq, x[i])) <= 1e-10


# ---------------------------------------------------------------------------
# datasets


def test_four_gaussians_component_frequencies():
    s = tr.dataset_sample("four_gaussians", 8000, seed=18)
    assert s.shape == (8000, 2)
    quadrant = (s[:, 0] > 0).astype(int) * 2 + (s[:, 1] > 0).astype(int)
    counts = np.bincount(quadrant, minlength=4)
    assert np.max(np.abs(counts / 8000 - 0.25)) <= 3 * np.sqrt(0.25 * 0.75 / 8000)


def test_dataset_determinism():
    for kind in ("four_gaussians", "swissroll", "two_moons", "checkerboard"):
        a = tr.dataset_sample(kind, 500, seed=19)
        b = tr.dataset_sample(kind, 500, seed=19)
        assert np.array_equal(a, b)
        assert a.shape == (500, 2)


def test_two_moons_raw_bounding_box():
    rng = np.random.default_rng(20)
    raw = tr.two_moons_raw(1000, rng)
    assert np.all(raw[:, 0] >= -1.5) and np.all(raw[:, 0] <= 2.5)
    assert np.all(raw[:, 1] >= -1.0) and np.all(raw[:, 1] <= 1.5)


def test_dataset_rejects_unknown():
    with pytest.raises(ValueError):
        tr.dataset_sample("spiral", 10, seed=0)


# ---------------------------------------------------------------------------
# MLE harnesses (smoke scale; acceptance runs the full criteria)


def test_nvp_mle_gaussian_sanity_short():
    config = tr.TrainConfig(lr=1e-3, steps=400, batch_size=128, log_interval=200)
    record = tr.train_nvp_mle("gaussian", "none", config, seed=21, n_pairs=2, hidden=32)
    # near-identity init starts close to the true entropy and stays finite
    assert abs(record.final["nll"] - tr.GAUSSIAN_ENTROPY_2D) <= 0.5


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


def test_mle_linear_gaussian_check_small():
    config = tr.TrainConfig(lr=2e-3, steps=2500, batch_size=512, seeds=1)
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
    with pytest.raises(ValueError):
        tr.TrainConfig(init_std=-1.0)
