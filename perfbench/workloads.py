"""The three benchmark workloads.

A workload generates its inputs from the seed with numpy and hands the
program only those inputs. It yields its requests round by round; the loop
in run.py times each request's call into the program, then checks the
output with checks.py outside the timed span. Every round holds the same
requests, so the share of each request kind, and of failed ops, is the
same in every run whatever its length.
"""

import time

import numpy as np
from scipy.special import ndtri

import checks
from couplingflow import (certificates, coupling, decomposer, metrics, separation, trainer,
                          universal)

clock = time.perf_counter


class Request:
    """One request: ``run`` calls the program and returns (output, latency
    of each op it contains); ``check`` returns a failure reason or None. A
    known-fault request is expected to fail and does not make the run
    incorrect."""

    def __init__(self, kind, call, check, known_fault=False):
        self.kind = kind
        self.call = call
        self.check = check
        self.known_fault = known_fault

    def run(self):
        start = clock()
        output = self.call()
        return output, [clock() - start]


class Workload:
    """A workload yields its requests round by round from ``round(index)``;
    failures of checks that span a round or the run go to ``problems``.
    Subclasses set ``name`` and the ``tail_percentile`` of op_tail_ms."""

    def __init__(self, seed):
        self.seed = seed
        self.problems = []

    def setup(self):
        """Generate fixed inputs and warm up on small ones."""

    def final_checks(self):
        """Checks run once after the timed loop."""

    def close(self):
        """Undo what setup changed."""


ROUND, SETUP, FINAL = 0, 1, 2


def round_rng(seed, workload, index, purpose=ROUND):
    """Generator for one round's inputs (or the set-up and final checks)."""
    return np.random.default_rng([seed % 2**32, workload, purpose, index])


# ---------------------------------------------------------------------------
# decompose_mix


def gaussian_target(rng, n, max_cond=1e4):
    """Gaussian matrix conditioned on det > 0 and cond <= max_cond (flipping
    a row maps one determinant sign class onto the other)."""
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


def rotation_target(rng, n):
    """Haar rotation, the matrix of a GLOW 1x1 convolution with det = 1."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def even_permutation(rng, n):
    p = rng.permutation(n)
    seen, parity = np.zeros(n, dtype=bool), 0
    for start in range(n):
        j, length = start, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity += max(length - 1, 0)
    if parity % 2:
        p[[0, 1]] = p[[1, 0]]
    return p


def hard_instance(rng, d):
    """diag(x) beside a d-cycle block; for even d the smallest x is negated
    to keep det > 0."""
    x = rng.uniform(0.5, 2.0, size=d)
    if d % 2 == 0:
        x[np.argmin(x)] *= -1.0
    t = np.zeros((2 * d, 2 * d))
    t[:d, :d] = np.diag(x)
    t[d + (np.arange(d) + 1) % d, d + np.arange(d)] = 1.0
    return t


def four_matrix_member(rng, d):
    """[I 0; A B][C 0; 0 I][I 0; 0 F][G H; 0 I] with positive diagonal B, C,
    F, G: a four-matrix coupling product whose top-left block is diagonal,
    so the certificate runs its full Schur test on it."""
    a, h = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    b, c, f, g = (np.diag(np.exp(0.5 * rng.standard_normal(d))) for _ in range(4))
    eye, zero = np.eye(d), np.zeros((d, d))
    return (np.block([[eye, zero], [a, b]]) @ np.block([[c, zero], [zero, eye]])
            @ np.block([[eye, zero], [zero, f]]) @ np.block([[g, h], [zero, eye]]))


def decompose_and_serialize(target):
    result = decomposer.decompose(target)
    text = coupling.sequence_to_json(result.layers)
    return result.layers, coupling.sequence_from_json(text)


def decompose_request(kind, target, served, known_fault=False):
    """Decompose and JSON round trip; the read-back sequence goes to
    ``served[kind]`` for later evaluate requests."""

    def check(output):
        seq, round_trip = output
        served[kind] = round_trip
        return checks.check_decomposition(target, seq, round_trip)

    return Request(kind, lambda: decompose_and_serialize(target), check, known_fault)


class DecomposeMix(Workload):
    name = "decompose_mix"
    tail_percentile = 99.0
    SIZES = (8, 16, 32)
    HARD_DIMS = tuple(range(4, 17))
    MEMBER_DIMS = (4, 8, 12, 16)
    BLOCKS_PER_ROUND = 2
    EVAL_BATCH = 256
    FAULT_SIZE = 128          # decompose loses accuracy here: a known fault
    FAULT_TARGETS = 4         # fixed targets, one per round, the same for every seed
    FAULT_SEED = 20101155

    def setup(self):
        rng = np.random.default_rng(self.FAULT_SEED)
        self.fault_targets = [gaussian_target(rng, self.FAULT_SIZE)
                              for _ in range(self.FAULT_TARGETS)]
        for request in self._block(round_rng(self.seed, 0, 0, SETUP), sizes=(8,), hard=(4,),
                                   members=(4,)):
            request.check(request.run()[0])

    def _block(self, rng, sizes, hard, members):
        served = {}
        for n in sizes:
            targets = {"gaussian": gaussian_target(rng, n), "rotation": rotation_target(rng, n),
                       "even_permutation": checks.permutation_matrix(even_permutation(rng, n))}
            for kind, target in targets.items():
                yield decompose_request(f"decompose.{kind}.{n}", target, served)
            p = rng.permutation(n)
            yield Request(f"permute.{n}", lambda p=p: decomposer.permutation_layers(p),
                          lambda seq, p=p: checks.check_permutation_layers(p, seq))
            x = rng.standard_normal((self.EVAL_BATCH, n))
            seq, target = served.get(f"decompose.gaussian.{n}"), targets["gaussian"]
            if seq is None:  # the decomposition raised; its failure is already counted
                continue

            def evaluate(seq=seq, x=x):
                y = coupling.apply(seq, x)
                return y, coupling.invert(seq, y)

            yield Request(f"evaluate.{n}", evaluate,
                          lambda out, x=x, t=target: checks.check_evaluate(t, x, *out))
        for d in hard:
            t = hard_instance(rng, d)
            yield Request(f"certify.hard.{d}", lambda t=t, d=d: certificates.certify_not_a4(t, d),
                          lambda cert, d=d: checks.check_hard_certificate(cert, d))
        for d in members:
            t = four_matrix_member(rng, d)
            yield Request(f"certify.member.{d}", lambda t=t, d=d: certificates.certify_not_a4(t, d),
                          checks.check_member_certificate)

    def round(self, index):
        rng = round_rng(self.seed, 0, index)
        for _ in range(self.BLOCKS_PER_ROUND):
            yield from self._block(rng, self.SIZES, self.HARD_DIMS, self.MEMBER_DIMS)
        target = self.fault_targets[index % self.FAULT_TARGETS]
        yield decompose_request(f"decompose.fault.{self.FAULT_SIZE}", target, {},
                                known_fault=True)


# ---------------------------------------------------------------------------
# train_sweep


class StepClock:
    """Marks the end of every optimizer step by wrapping the two Adam update
    methods; a training job's ops are the spans between marks."""

    def __init__(self):
        self.marks = []
        self._originals = {}

    def install(self):
        for cls in (trainer.AdamState, trainer.AdamList):
            original = cls.__dict__["update"]
            self._originals[cls] = original

            def update(*args, _original=original, **kwargs):
                _original(*args, **kwargs)
                self.marks.append(clock())

            cls.update = update

    def uninstall(self):
        for cls, original in self._originals.items():
            cls.update = original
        self._originals.clear()


class TrainJob(Request):
    """One training run; each optimizer step is one op. The job's set-up and
    final evaluation are charged to its first and last step."""

    def __init__(self, kind, call, check, steps, step_clock):
        super().__init__(kind, call, check)
        self.steps = steps
        self.step_clock = step_clock

    def run(self):
        marks = self.step_clock.marks
        marks.clear()
        start = clock()
        output = self.call()
        end = clock()
        if len(marks) != self.steps:
            raise RuntimeError(f"{self.kind}: {len(marks)} optimizer steps, want {self.steps}")
        bounds = np.array([start] + marks[:-1] + [end])
        return output, np.diff(bounds).tolist()


class TrainSweep(Workload):
    name = "train_sweep"
    tail_percentile = 99.9
    PLN_DIM = 16
    # depth -> steps; one pair of couplings plateaus early, so depth 1 gets
    # half the steps, which also puts the median op inside the depth-4 steps
    PLN_STEPS = {1: 600, 2: 1200, 4: 1200, 8: 1200}
    MLE_DATASET = "four_gaussians"
    MLE_PADDINGS = ("zero", "gaussian")
    # at lr 1e-3 a zero-padded run now and then ends on a loss spike above
    # its starting NLL, which fails the MLE check; none did at 3e-4
    MLE = trainer.TrainConfig(lr=3e-4, steps=100, batch_size=128, log_interval=25)

    def __init__(self, seed):
        super().__init__(seed)
        self.step_clock = StepClock()

    def setup(self):
        self.step_clock.install()
        warm_pln = trainer.TrainConfig(lr=1e-3, steps=10, batch_size=256, log_interval=5)
        warm_mle = trainer.TrainConfig(lr=1e-3, steps=2, batch_size=128, log_interval=1)
        trainer.train_pln(warm_pln, self.PLN_DIM, 1, self.seed,
                          target_matrix=np.eye(self.PLN_DIM))
        trainer.train_nvp_mle(self.MLE_DATASET, "gaussian", warm_mle, self.seed)

    def close(self):
        self.step_clock.uninstall()

    def round(self, index):
        rng = round_rng(self.seed, 1, index)
        target = rng.standard_normal((self.PLN_DIM, self.PLN_DIM))
        pln_seed = int(rng.integers(2**31))
        for depth, steps in self.PLN_STEPS.items():
            config = trainer.TrainConfig(lr=1e-3, steps=steps, batch_size=256, log_interval=100)
            yield TrainJob(
                f"pln.{depth}",
                lambda depth=depth, config=config: trainer.train_pln(
                    config, self.PLN_DIM, depth, pln_seed, target_matrix=target),
                lambda rec: checks.check_pln(rec.final, rec.metrics["loss"], target),
                steps, self.step_clock)
        mle_seed = int(rng.integers(2**31))
        finals = {}

        def check_mle(rec, padding):
            finals[padding] = rec.final
            return checks.check_mle(rec.metrics, rec.final)

        for padding in self.MLE_PADDINGS:
            yield TrainJob(
                f"mle.{padding}",
                lambda padding=padding: trainer.train_nvp_mle(self.MLE_DATASET, padding,
                                                              self.MLE, mle_seed),
                lambda rec, padding=padding: check_mle(rec, padding),
                self.MLE.steps, self.step_clock)
        if len(finals) == 2:
            reason = checks.check_padding_gap(finals["zero"], finals["gaussian"])
            if reason:
                self.problems.append(f"round {index}: {reason}")

    def final_checks(self):
        """pln_gradients against central differences of pln_loss."""
        rng = round_rng(self.seed, 1, 0, FINAL)
        model = trainer.PlnModel(4, 2, 0.1, seed=self.seed)
        z = rng.standard_normal((8, 4))
        target = rng.standard_normal((4, 4))
        analytic = trainer.pln_gradients(model, z, target)
        numeric = np.empty_like(analytic)
        step = 1e-6
        for i in range(model.params.size):
            old = model.params[i]
            model.params[i] = old + step
            up = trainer.pln_loss(model, z, target)
            model.params[i] = old - step
            down = trainer.pln_loss(model, z, target)
            model.params[i] = old
            numeric[i] = (up - down) / (2.0 * step)
        reason = checks.check_gradients(analytic, numeric)
        if reason:
            self.problems.append(reason)


# ---------------------------------------------------------------------------
# transport_eval


def affine_transport(rng):
    linear = np.array([[rng.uniform(0.8, 1.25), rng.uniform(-0.4, 0.4)],
                       [0.0, rng.uniform(0.8, 1.25)]])
    return linear, 0.5 * rng.standard_normal(2)


def transport_request(kind, push, reference, metric, check_more=None):
    """Push samples through a net and score the push by the exact empirical
    distance to the reference samples of the same inputs."""
    name = "w2" if metric == metrics.W2 else "w1"

    def call():
        pushed = push()
        return pushed, metrics.empirical_wasserstein(pushed, reference, metric)

    def check(output):
        pushed, plan = output
        return (checks.check_plan(pushed, reference, plan.assignment, plan.cost, name)
                or (check_more(pushed, plan) if check_more else None))

    return Request(kind, call, check)


class TransportEval(Workload):
    name = "transport_eval"
    tail_percentile = 95.0
    LATTICE_EPS = (0.5, 0.25, 0.125)
    PADDED_TRUNCATION = 6.0
    SELECTOR = {"k": 8, "d": 16, "gamma": 1.0, "eps": 0.5}
    N_SMALL, N_LARGE = 1024, 2048

    def setup(self):
        for request in self._requests(round_rng(self.seed, 2, 0, SETUP), n_small=64, n_large=128,
                                      costs={}):
            request.check(request.run()[0])

    def _lattice(self, phi, eps):
        eps1 = eps * eps / 4.0
        return universal.build_lattice_net(phi, eps, eps1, eps1 * eps1 / 4.0)

    def _selector(self, rng, n):
        k, d, gamma, eps = (self.SELECTOR[key] for key in ("k", "d", "gamma", "eps"))
        directions = rng.standard_normal((k, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        mixture = separation.mixture_from_directions(directions, gamma)
        net = separation.build_selector_net(mixture,
                                            separation.selector_delta(eps, gamma, d, k))
        h, z = rng.standard_normal(n), rng.standard_normal((n, d))
        # the exact mixture sampler on the same draws: component by the
        # equal-probability interval of h
        means = np.sqrt(20.0 * gamma**2 * d) * directions
        exact = gamma * z + means[np.searchsorted(ndtri(np.arange(1, k) / k), h)]

        def check_w1(pushed, plan):
            stderr = float(np.std(np.linalg.norm(pushed - exact, axis=1)) / np.sqrt(n))
            return checks.check_selector(plan.cost, stderr, eps)

        return transport_request(f"selector.w1.{n}", lambda: net.evaluate(h, z), exact,
                                 metrics.W1, check_w1)

    def _requests(self, rng, n_small, n_large, costs):
        linear, shift = affine_transport(rng)
        phi = universal.AffineTransport(shift=shift, linear=linear)
        x = rng.standard_normal((n_small, 2))
        for eps in self.LATTICE_EPS:
            net = self._lattice(phi, eps)

            def record(pushed, plan, eps=eps):
                costs[eps] = plan.cost

            yield transport_request(f"lattice.w2.{eps}.{n_small}",
                                    lambda net=net: net.apply(x), x @ linear.T + shift,
                                    metrics.W2, record)
        padded = universal.build_padded_net(phi, self.PADDED_TRUNCATION)
        # the padded net is exact only inside its truncation box
        data = np.clip(rng.standard_normal((n_small, 2)), -5.9, 5.9)
        expected = data @ linear.T + shift
        yield transport_request(
            f"padded.w2.{n_small}", lambda: padded.apply(np.hstack([data, np.zeros_like(data)])),
            np.hstack([expected, np.zeros_like(expected)]), metrics.W2,
            lambda pushed, plan: checks.check_padded(pushed, expected))
        yield self._selector(rng, n_small)
        x_large = rng.standard_normal((n_large, 2))
        net = self._lattice(phi, self.LATTICE_EPS[-1])
        yield transport_request(f"lattice.w2.{self.LATTICE_EPS[-1]}.{n_large}",
                                lambda: net.apply(x_large), x_large @ linear.T + shift,
                                metrics.W2)
        yield self._selector(rng, n_large)

    def round(self, index):
        costs = {}
        yield from self._requests(round_rng(self.seed, 2, index), self.N_SMALL, self.N_LARGE,
                                  costs)
        if len(costs) == len(self.LATTICE_EPS):
            reason = checks.check_lattice_schedule(costs)
            if reason:
                self.problems.append(f"round {index}: {reason}")

    def final_checks(self):
        """The exact distance against brute force on 6-point clouds."""
        rng = round_rng(self.seed, 2, 0, FINAL)
        for metric, name in ((metrics.W1, "w1"), (metrics.W2, "w2")):
            a, b = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
            plan = metrics.empirical_wasserstein(a, b, metric)
            reason = checks.check_exact_distance(plan.cost, a, b, name)
            if reason:
                self.problems.append(reason)


WORKLOADS = {w.name: w for w in (DecomposeMix, TrainSweep, TransportEval)}
