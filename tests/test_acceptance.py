"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Criteria
with stated runtime budgets assert them on this machine.
"""

import itertools
import math
import time

import numpy as np

from couplingflow import certificates as cert
from couplingflow import coupling as cp
from couplingflow import decomposer as dc
from couplingflow import matcore as mc
from couplingflow import metrics
from couplingflow import separation as sep
from couplingflow import trainer as tr
from couplingflow import universal as uv
from couplingflow.rng import stream
from spectral_oracle import spectra_match

GAUSSIAN_ENTROPY_2D = 1.0 + math.log(2.0 * math.pi)  # differential entropy of N(0, I2) per point


def report(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    print("\n" + line, flush=True)
    assert ok, line


def gaussian_positive_det(rng, n, max_cond=1e4):
    """Gaussian-entried target conditioned on det > 0 and bounded condition
    number. Flipping one row is an involution between the two determinant
    sign classes of the (sign-symmetric) Gaussian law, so it realizes exact
    conditioning on det > 0."""
    while True:
        t = rng.standard_normal((n, n))
        sign, _ = np.linalg.slogdet(t)
        if sign == 0:
            continue
        if sign < 0:
            t[0] = -t[0]
        sv = np.linalg.svd(t, compute_uv=False)
        if sv[0] / sv[-1] <= max_cond:
            return t


def test_criterion_01_decomposition_upper_bound():
    rng = stream(101, "acceptance", "decompose")
    worst_residual, worst_count = 0.0, 0
    time_at_32 = []
    for n, count in ((8, 334), (16, 333), (32, 333)):
        for _ in range(count):
            t = gaussian_positive_det(rng, n)
            t0 = time.perf_counter()
            result = dc.decompose(t)
            elapsed = time.perf_counter() - t0
            if n == 32:
                time_at_32.append(elapsed)
            worst_residual = max(worst_residual, result.residual)
            worst_count = max(worst_count, result.matrix_count)
    mean_ms = float(np.mean(time_at_32) * 1e3)
    ok = worst_count <= 47 and worst_residual <= 1e-6 and mean_ms <= 10.0
    report(1, ok, f"1000 targets: count <= {worst_count}, residual <= "
                  f"{worst_residual:.3g}, {mean_ms:.2f} ms/matrix at 2d=32")


def test_criterion_02_permutation_simulation():
    rng = stream(102, "acceptance", "perms")
    worst_err, worst_count = 0.0, 0
    for _ in range(500):
        pi = rng.permutation(16)
        seq = dc.permutation_layers(pi)
        m = cp.as_matrix(seq)
        worst_err = max(worst_err, float(np.max(np.abs(np.abs(m) - mc.permutation_to_matrix(pi)))))
        worst_count = max(worst_count, len(seq))
    ok = worst_count <= 21 and worst_err <= 1e-12
    report(2, ok, f"500 permutations of 2d=16: count <= {worst_count}, "
                  f"entrywise error <= {worst_err:.3g}")


def test_criterion_03_order2_factorization():
    ok = True
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            pi = np.array(perm)
            s1, s2 = dc.order2_factor(pi)
            ok &= bool(np.all(mc.compose_permutations(s1, s1) == np.arange(n)))
            ok &= bool(np.all(mc.compose_permutations(s2, s2) == np.arange(n)))
            ok &= bool(np.all(mc.compose_permutations(s2, s1) == pi))
    rng = stream(103, "acceptance", "order2")
    for _ in range(10000):
        pi = rng.permutation(500)
        s1, s2 = dc.order2_factor(pi)
        ok &= bool(np.all(s1[s1] == np.arange(500)))
        ok &= bool(np.all(s2[s2] == np.arange(500)))
        ok &= bool(np.all(s2[s1] == pi))
        if not ok:
            break
    report(3, ok, "exhaustive n <= 6 plus 10^4 random permutations at n = 500: "
                  "involutions and exact composition")


def test_criterion_04_block_diagonal_construction():
    # instances: diagonal a permuted signed ladder with gap >= 0.1, off-diagonal
    # entries N(0, 0.3^2); s carries the permuted inverses on its diagonal
    rng = stream(104, "acceptance", "blockdiag")
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 17))
        ladder = 0.5 + 0.1 * np.arange(d) + 0.1 * rng.uniform(0, 0.5, size=d).cumsum()
        diag = rng.permutation(ladder) * rng.choice([-1.0, 1.0], d)
        m = 0.3 * np.tril(rng.standard_normal((d, d)), -1) + np.diag(diag)
        s = 0.3 * np.tril(rng.standard_normal((d, d)), -1) + np.diag(rng.permutation(1.0 / diag))
        seq = dc.block_diag_layers(m, s, min_gap=0.05)
        target = np.zeros((2 * d, 2 * d))
        target[:d, :d] = m
        target[d:, d:] = s
        worst = max(worst, metrics.relative_frobenius(cp.as_matrix(seq), target))
    ok = worst <= 1e-8
    report(4, ok, f"500 matched triangular pairs (d <= 16, diag gap >= 0.1): "
                  f"4-matrix residual <= {worst:.3g}")


def test_criterion_05_schur_invariant():
    rng = stream(105, "acceptance", "schur")
    ok = True
    worst_conj = 0.0
    for trial in range(500):
        d = int(rng.choice([2, 4, 8]))
        a, e, h = (rng.standard_normal((d, d)) for _ in range(3))
        d_blk = rng.standard_normal((d, d))
        c = np.exp(0.5 * rng.standard_normal(d))
        ones = np.ones(d)
        fp = cert.four_product(a, ones, c, d_blk, e, ones, ones, h)
        schur = cert.schur_complement(fp.t, d)
        ok &= spectra_match(mc.eig(schur), mc.eig(fp.x_inv_c), rtol=1e-6)
        conj = metrics.relative_frobenius(
            fp.witness @ fp.x_inv_c @ mc.inv(fp.witness), schur)
        worst_conj = max(worst_conj, conj)
        ok &= conj <= 1e-7
        if not ok:
            break
    # the general-diagonal identity (with the trailing BF factor) holds too
    for trial in range(200):
        d = int(rng.choice([2, 4, 8]))
        a, e, h, d_blk = (rng.standard_normal((d, d)) for _ in range(4))
        b, c, f, g = (np.exp(0.5 * rng.standard_normal(d)) for _ in range(4))
        fp = cert.four_product(a, b, c, d_blk, e, f, g, h)
        schur = cert.schur_complement(fp.t, d)
        rebuilt = fp.witness @ fp.x_inv_cg @ mc.inv(fp.witness) @ np.diag(fp.bf)
        ok &= metrics.relative_frobenius(rebuilt, schur) <= 1e-7
        if not ok:
            break
    report(5, ok, f"500 products: spectrum multiset equality and conjugation "
                  f"identity (worst {worst_conj:.3g}); corrected general-diagonal "
                  f"identity on 200 more")


def test_criterion_06_lower_bound_certificate():
    ok = True
    details = []
    for d in range(4, 17):
        t = cert.hard_instance(d, np.arange(1.0, d + 1.0))
        result = cert.certify_not_a4(t, d)
        roots = np.exp(2j * np.pi * np.arange(d) / d)
        # multiset comparison: lexicographic sorting is unstable for
        # conjugate pairs whose real parts differ by one ulp
        cost = np.abs(result.schur_spectrum[:, None] - roots[None, :])
        from scipy.optimize import linear_sum_assignment
        rows, cols = linear_sum_assignment(cost)
        spectrum_err = float(np.max(cost[rows, cols]))
        primitive = float(np.min(np.abs(np.abs(result.schur_spectrum.imag) - np.sin(2 * np.pi / d))))
        ok &= result.verdict == cert.NOT_IN_A4
        ok &= spectrum_err <= 1e-8 and primitive <= 1e-8
        details.append(spectrum_err)
    # soundness: constructed members are never rejected
    rng = stream(106, "acceptance", "soundness")
    false_verdicts = 0
    for trial in range(500):
        d = int(rng.choice([2, 4, 8]))
        a, e, h = (rng.standard_normal((d, d)) for _ in range(3))
        diag_x = bool(rng.integers(0, 2))
        d_blk = np.zeros((d, d)) if diag_x else rng.standard_normal((d, d))
        if diag_x:
            e = np.zeros((d, d))
        unit = bool(rng.integers(0, 2))
        ones = np.ones(d)
        b = ones if unit else np.exp(0.5 * rng.standard_normal(d))
        f = ones if unit else np.exp(0.5 * rng.standard_normal(d))
        g = ones if unit else np.exp(0.5 * rng.standard_normal(d))
        c = np.exp(0.5 * rng.standard_normal(d))
        fp = cert.four_product(a, b, c, d_blk, e, f, g, h)
        t = fp.t
        if trial % 2 == 1:  # reversed ordering members through the half swap
            j = np.zeros((2 * d, 2 * d))
            j[:d, d:] = np.eye(d)
            j[d:, :d] = np.eye(d)
            t = j @ t @ j
        if cert.certify_not_a4(t, d).verdict == cert.NOT_IN_A4:
            false_verdicts += 1
    ok &= false_verdicts == 0
    report(6, ok, f"hard instances d in 4..16 certified with root-of-unity spectra "
                  f"(worst err {max(details):.3g}); {false_verdicts} false verdicts "
                  f"over 500 members")


def test_criterion_07_universal_approximation():
    t0 = time.time()
    lin = np.array([[1.2, 0.3], [0.0, 0.8]])
    phi = uv.AffineTransport(shift=np.array([0.5, -0.3]), linear=lin)
    w2_values, stderrs = [], []
    for eps in (0.5, 0.25, 0.125):
        eps1 = eps * eps / 4.0
        net = uv.build_lattice_net(phi, eps, eps1, eps1 * eps1 / 4.0)
        inputs = uv.gaussian_inputs(net, 2048, seed=107)
        pushed = net.apply(inputs)
        reference = uv.reference_pushforward(net, inputs)
        plan = metrics.empirical_wasserstein(pushed, reference, metrics.W2)
        w2_values.append(plan.cost)
        sq = np.linalg.norm(pushed - reference, axis=1) ** 2
        stderrs.append(float(np.std(sq) / np.sqrt(len(sq)) / (2 * max(plan.cost, 1e-12))))
    monotone = all(w2_values[i + 1] <= w2_values[i] + 2 * stderrs[i] for i in range(2))

    padded = uv.build_padded_net(phi, m=6.0)
    data = stream(107, "acceptance", "padded").standard_normal((4096, 2)).clip(-5.9, 5.9)
    x = np.concatenate([data, np.zeros_like(data)], axis=1)
    out = padded.apply(x)
    exact_err = float(np.max(np.abs(out[:, :2] - phi.forward(data))))
    pad_err = float(np.max(np.abs(out[:, 2:])))
    elapsed = time.time() - t0
    ok = (monotone and w2_values[-1] <= 0.2 and exact_err <= 1e-9
          and pad_err <= 1e-9 and elapsed <= 30.0)
    report(7, ok, f"lattice W2 schedule {['%.3f' % v for v in w2_values]} "
                  f"(monotone within 2 stderr: {monotone}), final <= 0.2; padded "
                  f"exact to {exact_err:.2g} with zero padding; {elapsed:.1f} s")


def test_criterion_08_selector_mixture():
    k, d, gamma, eps = 8, 16, 1.0, 0.5
    mixture = sep.random_mixture(k, d, gamma, seed=108)
    net = sep.build_selector_net(mixture, sep.selector_delta(eps, gamma, d, k))
    rng = stream(108, "acceptance", "selector")
    n = 4096
    h = rng.standard_normal(n)
    z = rng.standard_normal((n, d))
    # common random numbers: the exact-indicator map is itself an exact
    # mixture sampler, and the coupling realizes the W1 bound sharply
    pushed = net.evaluate(h, z)
    exact = net.evaluate_exact(h, z)
    plan = metrics.empirical_wasserstein(pushed, exact, metrics.W1)
    stderr = float(np.std(np.linalg.norm(pushed - exact, axis=1)) / np.sqrt(n))
    pou = float(np.max(np.abs(net.indicators(rng.standard_normal(100000)).sum(axis=1) - 1.0)))
    ok = plan.cost <= eps + 3 * stderr and pou <= 1e-10
    report(8, ok, f"selector W1 = {plan.cost:.4f} <= {eps} + 3*{stderr:.4f}; "
                  f"partition of unity error {pou:.2g}")


def test_criterion_09_separation_witness():
    d, k, gamma = 64, 16, 1.0
    codebook = sep.well_separated_vectors(d, 0.5, 2 * k, seed=109)
    mu = sep.mixture_from_directions(codebook.vectors[:k], gamma)
    nu = sep.mixture_from_directions(codebook.vectors[k:], gamma)
    witness = sep.w1_witness(sep.exact_mixture_sample(mu, 8192, seed=1091),
                             sep.exact_mixture_sample(nu, 8192, seed=1092),
                             mu.means, gamma)
    threshold = 0.05 * gamma * np.sqrt(d)
    ok = witness >= threshold
    report(9, ok, f"dual witness {witness:.3f} >= {threshold:.3f} at d=64, k=16")


def test_criterion_10_pln_depth_ordering():
    t0 = time.time()
    config = tr.TrainConfig(lr=1e-4, steps=20000, batch_size=256)
    medians = {}
    for n_layers in (1, 2, 4, 8):
        finals = [tr.train_pln(config, d=16, n_layers=n_layers, seed=s,
                               target_matrix=tr.make_target_matrix("gaussian_matrix", 16, s)
                               ).final["frobenius_error"]
                  for s in range(5)]
        medians[n_layers] = float(np.median(finals))
    elapsed = time.time() - t0
    ordered = medians[1] > medians[2] > medians[4] > medians[8]
    ok = (ordered and medians[8] <= 1e-3 and medians[1] >= 1e-1 and elapsed <= 300.0)
    report(10, ok, "median errors " +
           " > ".join(f"err({n})={medians[n]:.2e}" for n in (1, 2, 4, 8)) +
           f"; {elapsed:.0f} s")


def test_criterion_11_tanh_separation():
    config = tr.TrainConfig(lr=1e-3, steps=2500, batch_size=128, log_interval=250)
    mlp = tr.train_coupling_regression(config, 10, "elementwise_tanh", "small_mlp", seed=111)
    stack = tr.train_coupling_regression(config, 10, "elementwise_tanh", "coupling_stack",
                                         seed=111)
    ratio = mlp.final["loss"] / stack.final["loss"]
    ok = mlp.final["loss"] <= 0.1 * stack.final["loss"]
    report(11, ok, f"small MLP loss {mlp.final['loss']:.2e} vs coupling stack "
                   f"{stack.final['loss']:.2e} (ratio {ratio:.3f} <= 0.1)")


def test_criterion_12_padding_conditioning():
    config = tr.TrainConfig(lr=1e-3, steps=2000, batch_size=128, log_interval=100)
    sanity = tr.train_nvp_mle("gaussian", "none", config, seed=112)
    nll_gap = abs(sanity.final["nll"] - GAUSSIAN_ENTROPY_2D)

    cond_final_half = {}
    for padding in ("zero", "gaussian"):
        record = tr.train_nvp_mle("four_gaussians", padding, config, seed=112)
        series = record.metrics["cond_log10_median"]
        cond_final_half[padding] = float(np.median(series[len(series) // 2 :]))
    gap = cond_final_half["zero"] - cond_final_half["gaussian"]
    ok = gap >= 1.0 and nll_gap <= 0.1
    report(12, ok, f"log10 condition gap zero-vs-gaussian = {gap:.2f} >= 1; "
                   f"gaussian sanity NLL within {nll_gap:.3f} of 1 + ln(2pi)")


def test_criterion_13_mle_consistency():
    rng = stream(113, "acceptance", "mle")
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T + 0.5 * np.eye(4)
    fitted, sample_cov, gap = tr.mle_linear_gaussian_check(sigma, 100000, seed=113)
    ok = gap <= 5e-2
    report(13, ok, f"fitted covariance within {gap:.4f} of the sample covariance "
                   f"(2d=4, 10^5 samples)")


def test_criterion_14_numerics_master_check():
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

    def rel(a, b):
        return float(np.max(np.abs(a - b) / (np.abs(b) + 1e-8)))

    rng = np.random.default_rng(114)
    worst_grad = 0.0

    model = tr.PlnModel(4, 2, 0.1, seed=114)
    z = rng.standard_normal((8, 4))
    target = rng.standard_normal((4, 4))
    worst_grad = max(worst_grad, rel(tr.pln_gradients(model, z, target),
                                     fd_grad(lambda: tr.pln_loss(model, z, target),
                                             model.params)))

    def pln_nll():
        y, _ = model.forward(z)
        return float(np.mean(0.5 * np.sum(y * y, axis=1)) - model.log_det())

    y, caches = model.forward(z)
    model.backward(y / 8, caches, logdet_coeff=-1.0)
    worst_grad = max(worst_grad, rel(model.grad.copy(), fd_grad(pln_nll, model.params)))

    layers = tr._coupling_stack(4, 1, 6, activation="tanh", seed=114)
    x = rng.standard_normal((6, 4))
    y_tgt = np.tanh(x)

    def stack_loss():
        out, _, _ = tr._stack_forward(layers, x)
        return float(np.mean(np.sum((out - y_tgt) ** 2, axis=1)))

    out, caches, _ = tr._stack_forward(layers, x)
    grads = tr._stack_backward(layers, caches, 2 * (out - y_tgt) / 6)
    for p, g in zip(tr._stack_params(layers), grads):
        worst_grad = max(worst_grad, rel(g.ravel(), fd_grad(stack_loss, p.ravel())))

    def stack_nll():
        yy, _, ld = tr._stack_forward(layers, x)
        return tr._nll(yy, ld)

    yy, caches, _ = tr._stack_forward(layers, x)
    grads = tr._stack_backward(layers, caches, yy / 6, logdet_coeff=-1.0 / 6)
    for p, g in zip(tr._stack_params(layers), grads):
        worst_grad = max(worst_grad, rel(g.ravel(), fd_grad(stack_nll, p.ravel())))

    # exact assignment against brute force at n = 6
    a_cloud = rng.standard_normal((6, 3))
    b_cloud = rng.standard_normal((6, 3))
    w2 = metrics.empirical_wasserstein(a_cloud, b_cloud, metrics.W2).cost
    best = min(np.sqrt(np.mean(np.linalg.norm(a_cloud - b_cloud[list(p)], axis=1) ** 2))
               for p in itertools.permutations(range(6)))
    w2_err = abs(w2 - best)

    # eigenvalue trace/determinant consistency
    worst_eig = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 10))
        m = rng.standard_normal((n, n))
        vals = mc.eig(m)
        scale = max(1.0, mc.spectral_radius(vals))
        worst_eig = max(worst_eig, abs(np.sum(vals).real - np.trace(m)) / scale)
        det_prod = np.prod(vals).real
        worst_eig = max(worst_eig, abs(det_prod - mc.det(m)) / max(1.0, abs(mc.det(m))))

    ok = worst_grad <= 1e-4 and w2_err <= 1e-12 and worst_eig <= 1e-8
    report(14, ok, f"gradients vs finite differences <= {worst_grad:.2e}; W2 matches "
                   f"brute force to {w2_err:.1e}; eig trace/det consistency "
                   f"<= {worst_eig:.2e}")
