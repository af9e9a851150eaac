"""Command-line harness: configuration, seeding, dispatch, persistence.

Every subcommand validates its parameters before any computation and
derives all randomness from the master seed through named Philox streams.
Each runner returns its outputs as {key: (file name, content)}; ``run`` is
the only code that writes them, atomically (temp file + rename) into the
output directory, and lists them under their keys in ``manifest.json``.
Structured reports are JSON, time series are JSONL/CSV, matrices are MAT1
text. Exit codes: 0 success, 1 validation error, 2 numeric failure.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from couplingflow import certificates, coupling, decomposer, matcore, metrics
from couplingflow import separation as sep
from couplingflow import trainer, universal
from couplingflow.errors import (
    DivergedRunError,
    EigFailedError,
    EigGapTooSmallError,
    NegativeDeterminantError,
    RetryBudgetExhaustedError,
    SingularMatrixError,
)
from couplingflow.rng import stream

ARTIFACT_VERSION = "0.1.0"

NUMERIC_FAILURES = (DivergedRunError, EigFailedError, EigGapTooSmallError,
                    NegativeDeterminantError, RetryBudgetExhaustedError,
                    SingularMatrixError)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    subcommand: str
    params: dict
    master_seed: int = 0
    output_dir: str = "."


# ---------------------------------------------------------------------------
# parameter schemas: name -> (type, default, allowed-or-None); a None default
# marks a required parameter

_SCHEMAS = {
    "decompose": {
        "input": (str, None, None),
        "layers_name": (str, "layers.json", None),
        "report_name": (str, "report.json", None),
    },
    "certify": {
        "input": (str, None, None),
        "d": (int, None, None),
        "fit_matrices": (int, 0, None),
        "restarts": (int, 3, None),
        "fit_steps": (int, 4000, None),
    },
    "universal": {
        "mode": (str, None, ("padded", "lattice")),
        "target": (str, "affine", None),
        "dim": (int, 2, None),
        "eps": (float, 0.25, None),
        "samples": (int, 2048, None),
        "truncation": (float, 6.0, None),
    },
    "separation": {
        "d": (int, 16, None),
        "k": (int, 8, None),
        "gamma": (float, 1.0, None),
        "eps": (float, 0.5, None),
        "samples": (int, 4096, None),
    },
    "train-pln": {
        "d": (int, 16, None),
        "layers": (str, "1,2,4,8", None),
        "target": (str, "gaussian", ("gaussian", "toeplitz")),
        "seeds": (int, 5, None),
        "steps": (int, 20000, None),
        "lr": (float, 1e-4, None),
        "batch_size": (int, 256, None),
    },
    "train-reg": {
        "d": (int, 10, None),
        "target": (str, "tanh", ("tanh", "relu", "linear")),
        "arch": (str, "coupling", ("coupling", "mlp")),
        "steps": (int, 4000, None),
        "lr": (float, 1e-3, None),
        "batch_size": (int, 128, None),
    },
    "train-mle": {
        "dataset": (str, "four_gaussians", tuple(trainer.DATASETS)),
        "padding": (str, "none", tuple(trainer.PADDINGS)),
        "steps": (int, 3000, None),
        "lr": (float, 1e-3, None),
        "batch_size": (int, 128, None),
    },
    "plot-data": {
        "records": (str, None, None),  # comma-separated JSONL paths
        "csv_name": (str, "plot_data.csv", None),
    },
}


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    if config.subcommand not in _SCHEMAS:
        raise ConfigError(f"unknown subcommand {config.subcommand!r}")
    schema = _SCHEMAS[config.subcommand]
    unknown = set(config.params) - set(schema)
    if unknown:
        raise ConfigError(f"unknown parameters for {config.subcommand}: {sorted(unknown)}")
    cleaned = {}
    for name, (typ, default, allowed) in schema.items():
        if name in config.params and config.params[name] is not None:
            val = _coerce(name, typ, config.params[name])
        elif default is None:
            raise ConfigError(f"missing required parameter {name!r}")
        else:
            val = default
        if allowed is not None and val not in allowed:
            raise ConfigError(f"parameter {name} must be one of {allowed}, got {val!r}")
        cleaned[name] = val
    if not isinstance(config.master_seed, int):
        raise ConfigError("master seed must be an integer")
    _check_values(config.subcommand, cleaned)
    return ExperimentConfig(subcommand=config.subcommand, params=cleaned,
                            master_seed=config.master_seed, output_dir=config.output_dir)


def _coerce(name: str, typ, value):
    """``value`` as ``typ``. A flag arrives as a string and a config file
    value as its JSON type; a bool, or a float with a fractional part for
    an integer, is refused rather than converted."""
    if (typ in (int, float) and isinstance(value, bool)) or \
            (typ is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"parameter {name}: expected {typ.__name__}, got {value!r}")
    try:
        return typ(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"parameter {name}: {exc}") from exc


def _check_values(subcommand: str, params: dict) -> None:
    """Ranges the schema types and choices cannot express: every number is
    positive, except fit_matrices, which is 0 (no fit) or an even count;
    coupling dimensions are even; plus the per-subcommand limits below."""
    for name, val in params.items():
        if name == "fit_matrices":
            if val < 0 or val % 2:
                raise ConfigError(f"parameter fit_matrices must be 0 or a positive "
                                  f"even count, got {val}")
        elif isinstance(val, (int, float)) and not 0 < val < math.inf:
            raise ConfigError(f"parameter {name} must be positive, got {val!r}")
    if subcommand == "train-pln" or (subcommand == "train-reg" and params["arch"] == "coupling"):
        if params["d"] % 2:
            raise ConfigError(f"parameter d must be even, got {params['d']}")
    if subcommand == "train-pln":
        _layer_counts(params["layers"])
    if subcommand == "universal" and params["mode"] == "lattice" and params["eps"] > 1.0:
        # the lattice schedule eps1 = eps^2/4 <= eps/4 holds only for eps <= 1
        raise ConfigError(f"parameter eps must be at most 1 in lattice mode, got {params['eps']}")
    if subcommand == "separation" and params["k"] < 2:
        raise ConfigError(f"parameter k must be at least 2, got {params['k']}")
    if subcommand in ("universal", "separation") and params["samples"] > metrics.MAX_CLOUD:
        # the exact assignment that scores the push is capped; refuse before pushing
        raise ConfigError(f"parameter samples must be at most {metrics.MAX_CLOUD}, "
                          f"got {params['samples']}")


def _layer_counts(spec: str) -> list:
    """Parse the train-pln ``layers`` list, e.g. "1,2,4,8"."""
    try:
        counts = [int(x) for x in spec.split(",")]
    except ValueError as exc:
        raise ConfigError(f"parameter layers: {exc}") from exc
    if min(counts) < 1:
        raise ConfigError(f"parameter layers must hold positive counts, got {spec!r}")
    return counts


# ---------------------------------------------------------------------------
# persistence helpers


def _float_safe(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def atomic_write_text(path: str, text: str):
    dirname = os.path.dirname(os.path.abspath(path))
    os.makedirs(dirname, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2, default=_float_safe) + "\n")


def record_jsonl(record: trainer.RunRecord, meta: dict) -> str:
    lines = []
    cols = {k: v for k, v in record.metrics.items() if k != "step"}
    for i, step in enumerate(record.metrics.get("step", [])):
        row = dict(meta, seed=record.seed, step=step)
        for key, series in cols.items():
            row[key] = series[i]
        lines.append(json.dumps(row, default=_float_safe))
    return "\n".join(lines) + "\n"


def emit_plot_data(jsonl_docs) -> str:
    """Long-format CSV (experiment, d, variant, seed, step, metric, value)
    from RunRecord JSONL documents, given as (name, text) pairs; a line that
    is not a record of numeric metrics is a ConfigError naming its document."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["experiment", "d", "variant", "seed", "step", "metric", "value"])
    known = {"experiment", "d", "variant", "seed", "step"}
    for name, text in jsonl_docs:
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError(f"expected a JSON object, got {type(row).__name__}")
                values = [(key, repr(float(row[key]))) for key in sorted(set(row) - known)]
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"records {name} line {lineno}: {exc}") from exc
            base = [row.get("experiment", ""), row.get("d", ""), row.get("variant", ""),
                    row.get("seed", ""), row.get("step", "")]
            for key, value in values:
                writer.writerow(base + [key, value])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommand implementations


def _read_input(path: str, d=None) -> np.ndarray:
    """The MAT1 input matrix, square with an even dimension (2d when d is
    given); a malformed file or a wrong shape is a validation error."""
    try:
        t = matcore.read_mat1(path)
    except ValueError as exc:
        raise ConfigError(f"input {path}: {exc}") from exc
    n = t.shape[0] if d is None else 2 * d
    if t.shape != (n, n) or n % 2:
        want = "square with an even dimension" if d is None else f"{n} x {n}"
        raise ConfigError(f"input {path} is {t.shape[0]} x {t.shape[1]}, not {want}")
    return t


def _run_decompose(params, seed):
    t = _read_input(params["input"])
    result = decomposer.decompose(t)
    return {
        "layers": (params["layers_name"], coupling.sequence_to_json(result.layers) + "\n"),
        "report": (params["report_name"], {
            "matrix_count": result.matrix_count,
            "layer_pair_count": result.layer_pair_count,
            "residual": result.residual,
            "stage_log": result.stage_log,
            "warnings": result.warnings,
        }),
    }


def _run_certify(params, seed):
    d = params["d"]
    t = _read_input(params["input"], d)
    cert = certificates.certify_not_a4(t, d)
    doc = {
        "verdict": cert.verdict,
        "schur_spectrum": [[float(v.real), float(v.imag)] for v in cert.schur_spectrum],
        "reason_luru": cert.reason_luru,
        "max_imag": cert.max_imag,
        "reason_rlrl": cert.reason_rlrl,
        "trace_value": cert.trace_value,
    }
    if params["fit_matrices"]:
        config = trainer.TrainConfig(steps=params["fit_steps"], batch_size=128, lr=1e-3)
        doc["fit_residual"] = certificates.falsify_by_fit(
            t, params["fit_matrices"], params["restarts"], config)
        doc["fit_matrices"] = params["fit_matrices"]
    return {"certificate": ("certificate.json", doc)}


def _affine_target(dim: int):
    linear = np.eye(dim)
    for i in range(dim):
        linear[i, i] = 1.2 if i % 2 == 0 else 0.8
        if i + 1 < dim:
            linear[i, i + 1] = 0.3
    shift = np.array([0.5 if i % 2 == 0 else -0.3 for i in range(dim)])
    return universal.AffineTransport(shift=shift, linear=linear)


def _load_target(spec_str: str, dim: int):
    """The transport on ``dim`` coordinates that ``spec_str`` names; a
    quantile file must hold one well-formed table per coordinate."""
    if spec_str == "affine":
        return _affine_target(dim)
    if not spec_str.startswith("quantile:"):
        raise ConfigError(f"unknown target {spec_str!r}")
    path = spec_str.split(":", 1)[1]
    try:
        with open(path) as fh:
            tables = [(tbl["values"], tbl["cdf"]) for tbl in json.load(fh)]
        phi = universal.quantile_transport(tables)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"target {path}: {type(exc).__name__}: {exc}") from exc
    if phi.dim != dim:
        raise ConfigError(f"target {path} holds {phi.dim} tables; this mode and dim need {dim}")
    return phi


def _run_universal(params, seed):
    n_samples = params["samples"]
    eps = params["eps"]
    if params["mode"] == "padded":
        phi = _load_target(params["target"], params["dim"])
        net = universal.build_padded_net(phi, m=params["truncation"])
        schedule = {"mode": "padded", "truncation": params["truncation"]}
    else:
        phi = _load_target(params["target"], 2 * params["dim"])
        eps1 = eps * eps / 4.0
        eps2 = eps1 * eps1 / 4.0
        net = universal.build_lattice_net(phi, eps, eps1, eps2, m=params["truncation"])
        schedule = {"mode": "lattice", "eps": eps, "eps1": eps1, "eps2": eps2}
    inputs = universal.gaussian_inputs(net, n_samples, seed)
    pushed = net.apply(inputs)
    reference = universal.reference_pushforward(net, inputs)
    plan = metrics.empirical_wasserstein(pushed, reference, metrics.W2)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{i}" for i in range(pushed.shape[1])])
    for row in pushed:
        writer.writerow([repr(float(v)) for v in row])
    return {"samples": ("samples.csv", buf.getvalue()),
            "metrics": ("metrics.json", dict(schedule, empirical_w2=plan.cost,
                                             samples=n_samples, seed=seed))}


def _run_separation(params, seed):
    d, k = params["d"], params["k"]
    gamma, eps = params["gamma"], params["eps"]
    n = params["samples"]

    mixture = sep.random_mixture(k, d, gamma, seed)
    delta = sep.selector_delta(eps, gamma, d, k)
    net = sep.build_selector_net(mixture, delta)
    rng = stream(seed, "separation-cli", "selector")
    h = rng.standard_normal(n)
    z = rng.standard_normal((n, d))
    pushed = net.evaluate(h, z)
    exact = net.evaluate_exact(h, z)
    plan = metrics.empirical_wasserstein(pushed, exact, metrics.W1)

    codebook = None
    codebook_stats = {"requested": 2 * k, "built": 0}
    try:
        codebook = sep.well_separated_vectors(d, 0.5, 2 * k, seed)
        codebook_stats["built"] = codebook.vectors.shape[0]
    except RetryBudgetExhaustedError as exc:
        codebook_stats["error"] = str(exc)
    witness = None
    if codebook is not None:
        mu = sep.mixture_from_directions(codebook.vectors[:k], gamma)
        nu = sep.mixture_from_directions(codebook.vectors[k:2 * k], gamma)
        witness = sep.w1_witness(sep.exact_mixture_sample(mu, n, seed),
                                 sep.exact_mixture_sample(nu, n, seed + 1),
                                 mu.means, gamma)
    report = {
        "selector_w1_estimate": plan.cost,
        "selector_w1_bound": sep.selector_w1_bound(net),
        "delta": delta,
        "codebook": codebook_stats,
        "witness": witness,
        "witness_scale": gamma * np.sqrt(d),
        "epsnet_log_size": sep.epsnet_log_size(10.0, 10.0, k * d, eps),
        "kl_lower_bound": sep.kl_lower_bound(witness or 0.0, gamma**2),
    }
    return {"report": ("report.json", report)}


def _training_outputs(prefix, runs, summary):
    """The records/summary pair every training subcommand writes from its
    (record, meta) runs; the summary's ``notes`` lists every record's notes
    in record order."""
    summary["notes"] = [note for record, _ in runs for note in record.notes]
    return {"records": (f"{prefix}_records.jsonl", "".join(record_jsonl(*run) for run in runs)),
            "summary": (f"{prefix}_summary.json", summary)}


def _run_train_pln(params, seed):
    config = trainer.TrainConfig(lr=params["lr"], steps=params["steps"],
                                 batch_size=params["batch_size"])
    d = params["d"]
    layer_counts = _layer_counts(params["layers"])
    runs = []
    summary = {}
    for n_layers in layer_counts:
        finals = []
        for s in range(params["seeds"]):
            target = trainer.make_target_matrix(params["target"] + "_matrix", d, seed + s)
            record = trainer.train_pln(config, d, n_layers, seed + s, target)
            runs.append((record, {"experiment": "train-pln", "d": d, "variant": n_layers}))
            finals.append(record.final["frobenius_error"])
        summary[str(n_layers)] = {
            "median_frobenius_error": float(np.median(finals)),
            "finals": finals,
        }
    return _training_outputs("pln", runs, summary)


def _run_train_reg(params, seed):
    config = trainer.TrainConfig(lr=params["lr"], steps=params["steps"],
                                 batch_size=params["batch_size"])
    target = {"tanh": "elementwise_tanh", "relu": "elementwise_relu",
              "linear": "linear"}[params["target"]]
    arch = {"coupling": "coupling_stack", "mlp": "small_mlp"}[params["arch"]]
    record = trainer.train_coupling_regression(config, params["d"], target, arch, seed)
    meta = {"experiment": "train-reg", "d": params["d"],
            "variant": f"{params['target']}/{params['arch']}"}
    return _training_outputs("reg", [(record, meta)], {"final": record.final})


def _run_train_mle(params, seed):
    config = trainer.TrainConfig(lr=params["lr"], steps=params["steps"],
                                 batch_size=params["batch_size"])
    record = trainer.train_nvp_mle(params["dataset"], params["padding"], config, seed)
    meta = {"experiment": "train-mle", "d": 2 if params["padding"] == "none" else 4,
            "variant": f"{params['dataset']}/{params['padding']}"}
    return _training_outputs("mle", [(record, meta)], {"final": record.final})


def _run_plot_data(params, seed):
    docs = []
    for path in params["records"].split(","):
        try:
            with open(path) as fh:
                docs.append((path, fh.read()))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"records {path}: {exc}") from exc
    return {"csv": (params["csv_name"], emit_plot_data(docs))}


_RUNNERS = {
    "decompose": _run_decompose,
    "certify": _run_certify,
    "universal": _run_universal,
    "separation": _run_separation,
    "train-pln": _run_train_pln,
    "train-reg": _run_train_reg,
    "train-mle": _run_train_mle,
    "plot-data": _run_plot_data,
}


def run(config: ExperimentConfig) -> dict:
    """Validate, dispatch, persist: write each output into config.output_dir
    (text as is, a dict as JSON) and list it in the returned manifest."""
    config = validate_config(config)
    digest = json.dumps({"subcommand": config.subcommand, "params": config.params,
                         "seed": config.master_seed}, sort_keys=True)
    start = time.monotonic()
    outputs = _RUNNERS[config.subcommand](config.params, config.master_seed)
    manifest = {"config_hash": hashlib.sha256(digest.encode()).hexdigest()[:16],
                "version": ARTIFACT_VERSION, "files": {},
                "durations": {"total_s": time.monotonic() - start}}
    for key, (name, content) in outputs.items():
        path = manifest["files"][key] = os.path.join(config.output_dir, name)
        if isinstance(content, str):
            atomic_write_text(path, content)
        else:
            write_json(path, content)
    write_json(os.path.join(config.output_dir, "manifest.json"), manifest)
    return manifest


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors (an unknown flag or subcommand, a
    missing value, a seed that is not an integer) are ConfigErrors, so the
    command line fails the way a config file does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="couplingflow",
                     description="coupling-layer decompositions, certificates, and experiments")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config file; overrides flags")
    sub = parser.add_subparsers(dest="subcommand")
    for name, schema in _SCHEMAS.items():
        sp = sub.add_parser(name)
        # values stay strings here: validate_config is their only check
        for pname, (_, _, allowed) in schema.items():
            sp.add_argument("--" + pname.replace("_", "-"), dest=pname,
                            metavar="{" + ",".join(allowed) + "}" if allowed else None)
    return parser


_CONFIG_KEYS = {"subcommand": str, "params": dict, "master_seed": int, "output_dir": str}


def _read_config(path: str) -> dict:
    """The JSON object in a config file, setting only ExperimentConfig's
    fields, each of the type it needs; anything else is a ConfigError
    naming the file and the key."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    unknown = [key for key in doc if key not in _CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"{path}: {unknown[0]}: unknown key; a config file sets "
                          f"{', '.join(_CONFIG_KEYS)}")
    for key, kind in _CONFIG_KEYS.items():
        if key in doc and (not isinstance(doc[key], kind) or isinstance(doc[key], bool)):
            raise ConfigError(f"{path}: {key}: expected {kind.__name__}, "
                              f"got {type(doc[key]).__name__}")
    return doc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    try:
        doc = _read_config(args.config) if args.config else {}
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    # a config file overrides the flags key by key, its params included
    flag_params = {k: v for k, v in vars(args).items()
                   if k not in ("seed", "out", "config", "subcommand") and v is not None}
    config = ExperimentConfig(subcommand=doc.get("subcommand", args.subcommand),
                              params={**flag_params, **doc.get("params", {})},
                              master_seed=doc.get("master_seed", args.seed),
                              output_dir=doc.get("output_dir", args.out))
    if config.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        run(config)
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
