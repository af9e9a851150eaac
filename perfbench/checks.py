"""Correctness checks for the benchmark's outputs, built apart from the program.

Every checker recomputes what it expects with numpy from the inputs the
benchmark generated; none compares against a stored copy of an earlier
output, and none calls back into the program under test. A checker returns
None when the output is right and a one-line reason when it is not.

Layer sequences are read through their public fields only: ``layers``,
``ambient_dim`` and, per layer, ``side`` ("lower" or "upper"), ``dense`` and
``diag``. A lower layer is the matrix [I 0; dense diag(diag)], an upper layer
[diag(diag) dense; 0 I], and a sequence applies its first layer first.
"""

import itertools

import numpy as np

DECOMPOSE_RTOL = 1e-6      # relative Frobenius error of a decomposition
DECOMPOSE_BUDGET = 47      # coupling matrices per decomposition
PERMUTATION_BUDGET = 21    # coupling matrices per permutation simulation
EVALUATE_RTOL = 1e-6       # apply / invert against the dense map
ROOTS_ATOL = 1e-8          # Schur spectrum against the d-th roots of unity
PLN_FROB_RTOL = 1e-9       # reported against recomputed Frobenius error
GRAD_ATOL, GRAD_RTOL = 1e-6, 1e-4
PADDED_ATOL = 1e-9
COST_RTOL = 1e-12


def layer_matrix(layer) -> np.ndarray:
    d = layer.dense.shape[0]
    m = np.eye(2 * d)
    if layer.side == "lower":
        m[d:, :d] = layer.dense
        m[d:, d:] = np.diag(layer.diag)
    elif layer.side == "upper":
        m[:d, :d] = np.diag(layer.diag)
        m[:d, d:] = layer.dense
    else:
        raise ValueError(f"unknown side {layer.side!r}")
    return m


def sequence_matrix(seq) -> np.ndarray:
    """Product of the layer matrices, last layer leftmost."""
    m = np.eye(seq.ambient_dim)
    for layer in seq.layers:
        m = layer_matrix(layer) @ m
    return m


def relative_error(got, want) -> float:
    want_norm = np.linalg.norm(want)
    diff = np.linalg.norm(np.asarray(got) - np.asarray(want))
    return float(diff / want_norm) if want_norm > 0.0 else float(diff)


def permutation_matrix(p) -> np.ndarray:
    """P with P @ e_i = e_p[i]."""
    n = len(p)
    m = np.zeros((n, n))
    m[np.asarray(p), np.arange(n)] = 1.0
    return m


# ---------------------------------------------------------------------------
# decompose_mix


def check_decomposition(target, seq, round_trip):
    """The layer product matches the target, every diagonal block is
    positive, the count is within budget, and the JSON round trip is
    bit-exact."""
    if len(seq.layers) > DECOMPOSE_BUDGET:
        return f"{len(seq.layers)} coupling matrices exceed the budget {DECOMPOSE_BUDGET}"
    for k, layer in enumerate(seq.layers):
        if not np.all(layer.diag > 0.0):
            return f"layer {k} has a non-positive diagonal entry"
    err = relative_error(sequence_matrix(seq), target)
    if not err <= DECOMPOSE_RTOL:
        return f"product differs from the target by {err:.3g} (relative Frobenius)"
    if round_trip.ambient_dim != seq.ambient_dim or len(round_trip.layers) != len(seq.layers):
        return "JSON round trip changed the sequence shape"
    for k, (a, b) in enumerate(zip(seq.layers, round_trip.layers)):
        if (a.side != b.side or a.dense.dtype != b.dense.dtype
                or not np.array_equal(a.dense, b.dense) or not np.array_equal(a.diag, b.diag)):
            return f"JSON round trip changed layer {k}"
    return None


def check_permutation_layers(p, seq):
    """Entrywise |product| equals the permutation matrix, within 21 matrices."""
    if len(seq.layers) > PERMUTATION_BUDGET:
        return f"{len(seq.layers)} coupling matrices exceed the budget {PERMUTATION_BUDGET}"
    if not np.array_equal(np.abs(sequence_matrix(seq)), permutation_matrix(p)):
        return "|product| is not the permutation matrix"
    return None


def check_hard_certificate(cert, d):
    """A hard instance is certified not_in_a4 and its Schur spectrum is the
    set of d-th roots of unity."""
    if cert.verdict != "not_in_a4":
        return f"hard instance at d={d} got verdict {cert.verdict!r}"
    spectrum = np.asarray(cert.schur_spectrum, dtype=complex)
    if spectrum.shape != (d,):
        return f"Schur spectrum has {spectrum.size} values, want {d}"
    nearest = np.round(np.angle(spectrum) * d / (2.0 * np.pi)).astype(int) % d
    roots = np.exp(2j * np.pi * nearest / d)
    err = float(np.max(np.abs(spectrum - roots)))
    if len(set(nearest.tolist())) != d or not err <= ROOTS_ATOL:
        return f"Schur spectrum is not the {d}-th roots of unity (error {err:.3g})"
    return None


def check_member_certificate(cert):
    """A constructed four-matrix product is never certified not_in_a4."""
    if cert.verdict == "not_in_a4":
        return "a four-matrix product was certified not_in_a4"
    return None


def check_evaluate(target, x, y, x_back):
    """apply(x) equals x @ T.T and invert(apply(x)) returns x."""
    err = relative_error(y, x @ np.asarray(target).T)
    if not err <= EVALUATE_RTOL:
        return f"apply differs from x @ T.T by {err:.3g}"
    err = relative_error(x_back, x)
    if not err <= EVALUATE_RTOL:
        return f"invert(apply(x)) differs from x by {err:.3g}"
    return None


# ---------------------------------------------------------------------------
# train_sweep


def check_pln(final, losses, target):
    """The reported Frobenius error is ||M - T||^2 / d^2 of the recovered M,
    det M > 0, and the loss fell during training."""
    m = np.asarray(final["recovered_matrix"], dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    d = t.shape[0]
    want = float(np.sum((m - t) ** 2)) / d**2
    got = float(final["frobenius_error"])
    if not abs(got - want) <= PLN_FROB_RTOL * want:
        return f"frobenius_error {got:.6g} differs from the recomputed {want:.6g}"
    sign, _ = np.linalg.slogdet(m)
    if sign <= 0:
        return "recovered matrix has non-positive determinant"
    losses = np.asarray(losses, dtype=np.float64)
    if not np.all(np.isfinite(losses)) or not losses[-1] < losses[0]:
        return f"loss did not fall ({losses[0]:.4g} -> {losses[-1]:.4g})"
    return None


def check_gradients(analytic, numeric):
    """Analytic gradients agree with central differences."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    bad = np.abs(analytic - numeric) > GRAD_ATOL + GRAD_RTOL * np.abs(numeric)
    if analytic.shape != numeric.shape or np.any(bad):
        return "analytic gradient disagrees with central differences"
    return None


def check_mle(metrics_log, final):
    """Every logged value is finite, the final NLL is below the first logged
    NLL, and logged log10 condition numbers are >= 0."""
    for key, values in metrics_log.items():
        if not np.all(np.isfinite(np.asarray(values, dtype=np.float64))):
            return f"logged {key} has a non-finite value"
    nll = metrics_log["nll"]
    if not final["nll"] < nll[0]:
        return f"final NLL {final['nll']:.4g} is not below the first {nll[0]:.4g}"
    for key in ("cond_log10_median", "cond_log10_max"):
        if min(metrics_log[key]) < 0.0:
            return f"logged {key} is negative"
    return None


def check_padding_gap(zero_final, gaussian_final):
    """Zero padding ends less well conditioned than gaussian padding."""
    z, g = zero_final["cond_log10_median"], gaussian_final["cond_log10_median"]
    if not z > g:
        return f"zero padding log10 condition {z:.3g} is not above gaussian {g:.3g}"
    return None


# ---------------------------------------------------------------------------
# transport_eval


def matched_cost(a, b, assignment, metric):
    dist = np.linalg.norm(a - b[assignment], axis=1)
    return float(np.sqrt(np.mean(dist**2)) if metric == "w2" else np.mean(dist))


def check_plan(a, b, assignment, cost, metric):
    """The assignment is a permutation, the reported cost is its cost, and
    it is no worse than the natural pairing a[i] <-> b[i]."""
    assignment = np.asarray(assignment)
    n = a.shape[0]
    if assignment.shape != (n,) or not np.array_equal(np.sort(assignment), np.arange(n)):
        return "assignment is not a permutation"
    want = matched_cost(a, b, assignment, metric)
    if not abs(cost - want) <= COST_RTOL * max(want, 1.0):
        return f"reported cost {cost:.12g} differs from the assignment's {want:.12g}"
    natural = matched_cost(a, b, np.arange(n), metric)
    if not cost <= natural + COST_RTOL * max(natural, 1.0):
        return f"cost {cost:.6g} exceeds the natural pairing's {natural:.6g}"
    return None


def check_padded(out, expected_data):
    """The padded net reproduces the transport exactly and leaves the
    padding half at zero."""
    n = expected_data.shape[1]
    err = float(np.max(np.abs(out[:, :n] - expected_data)))
    pad = float(np.max(np.abs(out[:, n:])))
    if not err <= PADDED_ATOL:
        return f"padded net misses the transport by {err:.3g}"
    if not pad <= PADDED_ATOL:
        return f"padding half left at {pad:.3g}"
    return None


def check_lattice_schedule(costs_by_eps):
    """Lattice W2 falls as the grid pitch eps shrinks."""
    ordered = [cost for _, cost in sorted(costs_by_eps.items(), reverse=True)]
    if not all(b < a for a, b in zip(ordered, ordered[1:])):
        return f"lattice W2 does not fall with eps: {ordered}"
    return None


def check_selector(w1, stderr, eps):
    if not w1 <= eps + 3.0 * stderr:
        return f"selector W1 {w1:.4g} exceeds eps + 3 stderr = {eps + 3.0 * stderr:.4g}"
    return None


def brute_force_cost(a, b, metric):
    """Exact optimal matching cost by enumerating every permutation."""
    n = a.shape[0]
    return min(matched_cost(a, b, np.array(p), metric) for p in itertools.permutations(range(n)))


def check_exact_distance(cost, a, b, metric):
    want = brute_force_cost(a, b, metric)
    if not abs(cost - want) <= COST_RTOL * max(want, 1.0):
        return f"{metric} {cost:.12g} differs from the brute-force optimum {want:.12g}"
    return None
