import json
import os

import numpy as np
import pytest

from couplingflow import coupling, decomposer, harness, matcore, trainer
from couplingflow import separation as sep
from couplingflow.harness import ConfigError, ExperimentConfig


def test_validate_unknown_subcommand():
    with pytest.raises(ConfigError):
        harness.validate_config(ExperimentConfig(subcommand="nope", params={}))


def test_validate_unknown_and_missing_params():
    with pytest.raises(ConfigError):
        harness.validate_config(ExperimentConfig(subcommand="decompose",
                                                 params={"bogus": 1}))
    with pytest.raises(ConfigError):
        harness.validate_config(ExperimentConfig(subcommand="decompose", params={}))


@pytest.mark.parametrize("params, name", [
    ({"d": 4.7, "samples": 64.9}, "d"),
    ({"samples": 64.5}, "samples"),
    ({"d": True}, "d"),
    ({"gamma": False}, "gamma"),
    ({"k": float("inf")}, "k"),
], ids=["fractional-d", "fractional-samples", "bool-int", "bool-float", "inf-int"])
def test_validate_refuses_fractional_and_bool_numbers(params, name):
    # a config file's JSON numbers are checked, not truncated to an int
    with pytest.raises(ConfigError, match=f"^parameter {name}: "):
        harness.validate_config(ExperimentConfig(subcommand="separation", params=params))


def test_validate_accepts_integral_floats():
    cleaned = harness.validate_config(ExperimentConfig(
        subcommand="separation", params={"d": 4.0, "samples": "64", "gamma": 2})).params
    assert (cleaned["d"], cleaned["samples"], cleaned["gamma"]) == (4, 64, 2.0)
    assert type(cleaned["d"]) is int and type(cleaned["gamma"]) is float


def test_validate_choice_params():
    with pytest.raises(ConfigError):
        harness.validate_config(ExperimentConfig(
            subcommand="train-mle", params={"padding": "maybe"}))


def test_decompose_cli_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((8, 8))
    if matcore.det(t) < 0:
        t[0] = -t[0]
    mat_path = tmp_path / "t.mat"
    matcore.write_mat1(mat_path, t)
    outdir = tmp_path / "out"
    code = harness.main(["--out", str(outdir), "decompose", "--input", str(mat_path)])
    assert code == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["matrix_count"] <= 35
    assert report["residual"] <= 1e-6
    assert (outdir / "layers.json").exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert set(manifest["files"]) == {"layers", "report"}
    for path in manifest["files"].values():
        assert os.path.exists(path)


def test_decompose_cli_layers_file_reads_back_bitwise(tmp_path):
    # the layers file is the in-process decomposition, bit for bit
    rng = np.random.default_rng(16)
    t = rng.standard_normal((16, 16))
    if matcore.det(t) < 0:
        t[0] = -t[0]
    mat_path = tmp_path / "t.mat"
    matcore.write_mat1(mat_path, t)
    assert np.array_equal(matcore.read_mat1(mat_path), t)
    outdir = tmp_path / "out"
    assert harness.main(["--out", str(outdir), "decompose", "--input", str(mat_path)]) == 0
    served = coupling.sequence_from_json((outdir / "layers.json").read_text())
    local = decomposer.decompose(t).layers
    assert served.ambient_dim == local.ambient_dim == 16
    assert len(served) == len(local) > 0
    for a, b in zip(local.layers, served.layers):
        assert a.side == b.side
        for x, y in ((a.dense, b.dense), (a.diag, b.diag)):
            assert x.shape == y.shape
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_decompose_cli_exit_codes(tmp_path):
    # negative determinant: numeric failure -> exit 2
    mat_path = tmp_path / "neg.mat"
    matcore.write_mat1(mat_path, np.diag([-1.0, 1.0, 1.0, 1.0]))
    assert harness.main(["--out", str(tmp_path / "o1"), "decompose",
                         "--input", str(mat_path)]) == 2
    # unknown subcommand -> validation error handled by argparse/main
    assert harness.main(["--out", str(tmp_path / "o2")]) == 1


def test_certify_cli(tmp_path):
    from couplingflow import certificates
    t = certificates.hard_instance(4, np.array([1.0, 2.0, 3.0, 4.0]))
    mat_path = tmp_path / "hard.mat"
    matcore.write_mat1(mat_path, t)
    outdir = tmp_path / "out"
    code = harness.main(["--out", str(outdir), "certify", "--input", str(mat_path),
                         "--d", "4"])
    assert code == 0
    doc = json.loads((outdir / "certificate.json").read_text())
    assert doc["verdict"] == "not_in_a4"
    assert abs(doc["max_imag"] - 1.0) <= 1e-8


def test_certify_cli_large_d(tmp_path):
    # the Schur complement spectrum at d = 257 is one 257 x 257 eig
    from couplingflow import certificates
    d = 257
    t = certificates.hard_instance(d, np.linspace(1.0, 2.0, d))
    mat_path = tmp_path / "hard257.mat"
    matcore.write_mat1(mat_path, t)
    outdir = tmp_path / "out"
    assert harness.main(["--out", str(outdir), "certify", "--input", str(mat_path),
                         "--d", str(d)]) == 0
    assert json.loads((outdir / "certificate.json").read_text())["verdict"] == "not_in_a4"


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("x_block, w_block, reason", [
    (np.diag([1.0, 2.0, 3.0, 4.0]), np.ones((4, 4)), "bottom-right block singular"),
    (np.diag([0.0, 2.0, 3.0, 4.0]), np.eye(4), "not evaluated"),
    (np.diag([1.0, 2.0, 3.0, 4.0]) + 0.5, np.eye(4), "not evaluated"),
])
def test_certify_cli_writes_strict_json(tmp_path, x_block, w_block, reason):
    # a branch that forms no swapped Schur complement has no trace: null,
    # where a singular W once wrote the non-JSON literal NaN
    t = np.block([[x_block, np.eye(4)], [np.eye(4), w_block]])
    mat_path = tmp_path / "t.mat"
    matcore.write_mat1(mat_path, t)
    outdir = tmp_path / "out"
    assert harness.main(["--out", str(outdir), "certify", "--input", str(mat_path),
                         "--d", "4"]) == 0
    doc = json.loads((outdir / "certificate.json").read_text(),
                     parse_constant=_refuse_constant)
    assert doc["verdict"] == "inconclusive"
    assert doc["trace_value"] is None
    assert doc["reason_rlrl"].startswith(reason)


def test_universal_cli_deterministic(tmp_path):
    args = ["--seed", "7", "universal", "--mode", "lattice", "--eps", "0.25",
            "--samples", "256", "--dim", "1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert harness.main(["--out", str(out1)] + args) == 0
    assert harness.main(["--out", str(out2)] + args) == 0
    assert (out1 / "samples.csv").read_text() == (out2 / "samples.csv").read_text()
    m1 = json.loads((out1 / "metrics.json").read_text())
    m2 = json.loads((out2 / "metrics.json").read_text())
    assert m1["empirical_w2"] == m2["empirical_w2"]
    # manifests agree up to wall-clock durations
    d1 = json.loads((out1 / "manifest.json").read_text())
    d2 = json.loads((out2 / "manifest.json").read_text())
    d1.pop("durations"), d2.pop("durations")
    d1f = {k: os.path.basename(v) for k, v in d1.pop("files").items()}
    d2f = {k: os.path.basename(v) for k, v in d2.pop("files").items()}
    assert d1 == d2 and d1f == d2f


def test_universal_padded_cli(tmp_path):
    outdir = tmp_path / "out"
    code = harness.main(["--out", str(outdir), "--seed", "3", "universal",
                         "--mode", "padded", "--dim", "2", "--samples", "128"])
    assert code == 0
    doc = json.loads((outdir / "metrics.json").read_text())
    assert doc["empirical_w2"] <= 1e-9  # exact transport on data coordinates


def test_config_file_overrides_flags(tmp_path):
    cfg = {"subcommand": "separation",
           "params": {"d": 8, "k": 4, "samples": 256, "eps": 0.5},
           "master_seed": 5, "output_dir": str(tmp_path / "sep")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert harness.main(["--config", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "sep" / "report.json").read_text())
    assert report["selector_w1_estimate"] <= report["selector_w1_bound"]
    assert report["witness"] is not None


def test_config_file_merges_with_flags_key_by_key(tmp_path):
    # flags the file does not set still hold; what the file sets wins
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"subcommand": "separation"}))
    flags = ["separation", "--d", "4", "--k", "2", "--samples", "64"]
    assert harness.main(["--out", str(tmp_path / "a"), "--config", str(cfg_path)] + flags) == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["delta"] == sep.selector_delta(0.5, 1.0, 4, 2)
    cfg_path.write_text(json.dumps({"subcommand": "separation", "params": {"k": 3},
                                    "output_dir": str(tmp_path / "file")}))
    assert harness.main(["--out", str(tmp_path / "b"), "--config", str(cfg_path)] + flags) == 0
    report = json.loads((tmp_path / "file" / "report.json").read_text())
    assert report["delta"] == sep.selector_delta(0.5, 1.0, 4, 3)
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"{not json"])
def test_config_file_unreadable_is_a_config_error(tmp_path, capsys, content):
    # a file that is not UTF-8, or not JSON, exits 1 naming the file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content)
    assert harness.main(["--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg_path}: ")


@pytest.mark.parametrize("doc, key", [
    ([1, 2], "expected a JSON object"),
    ("str", "expected a JSON object"),
    ({"subcommand": ["x"]}, "subcommand"),
    ({"subcommand": "separation", "params": {"samples": 8}, "output_dir": 5}, "output_dir"),
    ({"subcommand": "separation", "params": [["samples", 8]]}, "params"),
    ({"subcommand": "separation", "params": {"samples": 8}, "master_seed": "3"}, "master_seed"),
    ({"subcommand": "separation", "params": {"samples": 8}, "seed": 5, "outdir": "x"}, "seed"),
], ids=["top-level-list", "top-level-string", "list-subcommand", "number-output-dir",
        "list-params", "string-seed", "unknown-keys"])
def test_config_file_malformed_is_a_config_error(tmp_path, monkeypatch, capsys, doc, key):
    # exits 1 naming the file and the key, before anything runs or is written
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert harness.main(["--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {cfg_path}: {key}")
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("args", [
    ["universal", "--mode", "foo"],
    ["separation", "--d", "abc"],
    ["train-mle", "--padding", "maybe"],
    ["separation", "--bogus", "1"],
    ["nope"],
    ["universal", "--mode"],
    ["--seed", "x", "separation"],
], ids=["bad-choice", "bad-int", "bad-choice-mle", "unknown-flag", "unknown-subcommand",
        "missing-value", "bad-seed"])
def test_cli_flag_errors_are_validation_errors(tmp_path, capsys, args):
    # a bad flag exits 1 like the same value in a config file; 2 is kept for
    # numeric failures
    outdir = tmp_path / "out"
    assert harness.main(["--out", str(outdir)] + args) == 1
    assert "validation error: " in capsys.readouterr().err
    assert not outdir.exists()


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        harness.main(["universal", "-h"])
    assert exc.value.code == 0
    assert "--mode {padded,lattice}" in capsys.readouterr().out


def test_plot_data_roundtrip(tmp_path):
    from couplingflow import trainer
    rec = trainer.RunRecord(seed=1)
    rec.log(0, loss=0.5, frobenius_error=0.25)
    rec.log(100, loss=0.125, frobenius_error=0.0625)
    text = harness.record_jsonl(rec, {"experiment": "train-pln", "d": 4, "variant": 2})
    jsonl_path = tmp_path / "r.jsonl"
    jsonl_path.write_text(text)
    outdir = tmp_path / "out"
    assert harness.main(["--out", str(outdir), "plot-data",
                         "--records", str(jsonl_path)]) == 0
    rows = (outdir / "plot_data.csv").read_text().splitlines()
    assert rows[0] == "experiment,d,variant,seed,step,metric,value"
    assert len(rows) == 1 + 4  # two metrics at two steps
    # values round-trip exactly through repr
    val = float(rows[1].split(",")[-1])
    assert val in (0.5, 0.25, 0.125, 0.0625)


def test_emit_plot_data_empty():
    csv_text = harness.emit_plot_data([("empty.jsonl", "")])
    assert csv_text.strip() == "experiment,d,variant,seed,step,metric,value"


@pytest.mark.parametrize("args, files", [
    (["decompose", "--input", "t.mat"], {"layers": "layers.json", "report": "report.json"}),
    (["certify", "--input", "t.mat", "--d", "2"], {"certificate": "certificate.json"}),
    (["universal", "--mode", "padded", "--dim", "2", "--samples", "32"],
     {"samples": "samples.csv", "metrics": "metrics.json"}),
    (["separation", "--d", "4", "--k", "2", "--samples", "32"], {"report": "report.json"}),
    (["train-pln", "--d", "2", "--layers", "1", "--seeds", "1", "--steps", "10"],
     {"records": "pln_records.jsonl", "summary": "pln_summary.json"}),
    (["train-reg", "--d", "2", "--arch", "mlp", "--steps", "10"],
     {"records": "reg_records.jsonl", "summary": "reg_summary.json"}),
    (["train-mle", "--dataset", "gaussian", "--steps", "10"],
     {"records": "mle_records.jsonl", "summary": "mle_summary.json"}),
    (["plot-data", "--records", "r.jsonl"], {"csv": "plot_data.csv"}),
])
def test_cli_output_sets(tmp_path, args, files):
    # each subcommand writes exactly its outputs plus a manifest listing them
    matcore.write_mat1(tmp_path / "t.mat", np.diag([1.0, 2.0, 3.0, 4.0]))
    (tmp_path / "r.jsonl").write_text('{"experiment": "e", "seed": 0, "step": 0, "loss": 1.0}\n')
    args = [str(tmp_path / a) if a.endswith((".mat", ".jsonl")) else a for a in args]
    outdir = tmp_path / "out"
    assert harness.main(["--out", str(outdir)] + args) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["files"] == {key: str(outdir / name) for key, name in files.items()}
    assert set(os.listdir(outdir)) == {"manifest.json", *files.values()}


def test_atomic_write(tmp_path):
    path = tmp_path / "sub" / "file.txt"
    harness.atomic_write_text(str(path), "hello")
    assert path.read_text() == "hello"
    assert not any(p.suffix == ".tmp" for p in path.parent.iterdir())


def test_train_pln_cli_smoke(tmp_path):
    outdir = tmp_path / "pln"
    code = harness.main(["--out", str(outdir), "train-pln", "--d", "4",
                         "--layers", "1,2", "--seeds", "2", "--steps", "120"])
    assert code == 0
    summary = json.loads((outdir / "pln_summary.json").read_text())
    assert set(summary) == {"1", "2", "notes"}
    assert len(summary["1"]["finals"]) == 2
    lines = (outdir / "pln_records.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert {r["variant"] for r in rows} == {1, 2}
    assert all("frobenius_error" in r for r in rows)
    assert harness.main(["--out", str(tmp_path / "none"), "train-pln", "--seeds", "0"]) == 1


@pytest.mark.parametrize("args", [
    ["train-pln", "--steps", "0"],
    ["train-pln", "--d", "5"],
    ["train-pln", "--layers", "0"],
    ["train-pln", "--layers", "a"],
    ["train-reg", "--lr", "-1"],
    ["train-mle", "--batch-size", "0"],
    ["certify", "--fit-matrices", "3"],
    ["certify", "--fit-matrices", "8", "--fit-steps", "0"],
    ["certify", "--fit-matrices", "8", "--restarts", "0"],
    ["universal", "--mode", "lattice", "--samples", "0"],
    ["universal", "--mode", "padded", "--truncation", "-1"],
    ["separation", "--samples", "0"],
    ["universal", "--mode", "lattice", "--eps", "2"],
    ["separation", "--k", "1"],
    ["train-reg", "--d", "5"],
    ["decompose", "--input", "odd.mat"],
    ["decompose", "--input", "wide.mat"],
    ["certify", "--input", "hard.mat", "--d", "3"],
    ["decompose", "--input", "garbled.mat"],
    ["universal", "--mode", "padded", "--samples", "5000"],
    ["separation", "--samples", "5000"],
])
def test_cli_rejects_bad_values_before_running(tmp_path, capsys, args):
    from couplingflow import certificates
    matcore.write_mat1(tmp_path / "hard.mat", certificates.hard_instance(4, np.arange(1.0, 5.0)))
    matcore.write_mat1(tmp_path / "odd.mat", np.eye(3))
    matcore.write_mat1(tmp_path / "wide.mat", np.ones((4, 6)))
    (tmp_path / "garbled.mat").write_text("not a matrix\n")
    if args[0] == "certify" and "--input" not in args:
        args = args + ["--input", "hard.mat", "--d", "4"]
    args = [str(tmp_path / a) if a.endswith(".mat") else a for a in args]
    outdir = tmp_path / "out"
    assert harness.main(["--out", str(outdir)] + args) == 1
    assert "validation error" in capsys.readouterr().err
    assert not outdir.exists()


def _quantile_tables(count, decreasing=False, drop=None):
    vals = np.linspace(-3.0, 3.0, 5)
    cdf = np.linspace(0.1, 0.9, 5)
    tables = [{"values": list(vals[::-1] if decreasing else vals), "cdf": list(cdf)}
              for _ in range(count)]
    for tbl in tables:
        tbl.pop(drop, None)
    return json.dumps(tables)


@pytest.mark.parametrize("args, name, content", [
    (["decompose"], "nan.mat", "MAT1 2 2\n1.0 nan\n0.0 1.0\n"),
    (["decompose"], "inf.mat", "MAT1 2 2\n1.0 0.0\ninf 1.0\n"),
    (["decompose"], "empty.mat", "MAT1 0 0\n"),
    (["certify", "--d", "1"], "nan.mat", "MAT1 2 2\n1.0 nan\n0.0 1.0\n"),
    (["universal", "--mode", "padded", "--dim", "2"], "bad.json", "[{"),
    (["universal", "--mode", "padded", "--dim", "2"], "nocdf.json",
     _quantile_tables(2, drop="cdf")),
    (["universal", "--mode", "padded", "--dim", "2"], "down.json", _quantile_tables(2, True)),
    (["universal", "--mode", "padded", "--dim", "1"], "two.json", _quantile_tables(2)),
    (["universal", "--mode", "lattice", "--dim", "1"], "three.json", _quantile_tables(3)),
    (["universal", "--mode", "padded", "--dim", "2"], "object.json", '{"values": [1, 2]}'),
    (["plot-data"], "r.jsonl", '{"step": 0, "loss": 1.0}\nnot json\n'),
    (["plot-data"], "r.jsonl", '{"step": 0, "loss": "high"}\n'),
    (["plot-data"], "r.jsonl", b"\xff\xfe not utf-8\n"),
], ids=["decompose-nan", "decompose-inf", "decompose-0x0", "certify-nan", "quantile-bad-json",
        "quantile-no-cdf", "quantile-decreasing", "padded-count", "lattice-count",
        "quantile-object", "plot-data-not-json", "plot-data-not-numeric", "plot-data-not-utf8"])
def test_cli_names_malformed_input_files(tmp_path, capsys, args, name, content):
    # a malformed input file is a validation error naming the file, never a
    # traceback or a run on something other than what was asked
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    flag = {"decompose": "--input", "certify": "--input", "universal": "--target",
            "plot-data": "--records"}[args[0]]
    value = f"quantile:{path}" if args[0] == "universal" else str(path)
    outdir = tmp_path / "out"
    assert harness.main(["--out", str(outdir)] + args + [flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and str(path) in err
    assert not outdir.exists()


def test_train_reg_cli_smoke(tmp_path):
    outdir = tmp_path / "reg"
    code = harness.main(["--out", str(outdir), "train-reg", "--d", "4",
                         "--target", "relu", "--arch", "mlp", "--steps", "80"])
    assert code == 0
    summary = json.loads((outdir / "reg_summary.json").read_text())
    assert np.isfinite(summary["final"]["loss"])


@pytest.mark.parametrize("args, run", [
    # one step on d = 4: the loss on the final batch is above the step-0
    # loss for seeds 0 and 1 of train_pln
    (["train-pln", "--d", "4", "--layers", "1", "--seeds", "2", "--steps", "1"],
     lambda: [trainer.train_pln(trainer.TrainConfig(lr=1e-4, steps=1), 4, 1, s,
                                trainer.make_target_matrix("gaussian_matrix", 4, s))
              for s in (0, 1)]),
    # at lr 1 the MLP's final loss is over a hundred times its first
    (["train-reg", "--d", "4", "--arch", "mlp", "--lr", "1", "--steps", "10"],
     lambda: [trainer.train_coupling_regression(
         trainer.TrainConfig(lr=1.0, steps=10, batch_size=128), 4, "elementwise_tanh",
         "small_mlp", 0)]),
])
def test_training_summary_holds_every_record_notes(tmp_path, args, run):
    outdir = tmp_path / "out"
    assert harness.main(["--out", str(outdir)] + args) == 0
    prefix = args[0].split("-")[1]
    notes = json.loads((outdir / f"{prefix}_summary.json").read_text())["notes"]
    records = run()
    assert notes == [note for record in records for note in record.notes]
    assert len(notes) == len(records) and all(n.startswith("warning: final loss") for n in notes)


def test_train_mle_cli_smoke(tmp_path):
    outdir = tmp_path / "mle"
    code = harness.main(["--out", str(outdir), "train-mle", "--dataset", "gaussian",
                         "--padding", "none", "--steps", "60"])
    assert code == 0
    summary = json.loads((outdir / "mle_summary.json").read_text())
    assert np.isfinite(summary["final"]["nll"])
    assert np.isfinite(summary["final"]["cond_log10_median"])


def test_universal_quantile_target_cli(tmp_path):
    from scipy.special import ndtr
    vals = np.linspace(-5.0, 5.0, 801)
    tables = [{"values": list(vals), "cdf": list(ndtr(vals))} for _ in range(2)]
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps(tables))
    outdir = tmp_path / "out"
    code = harness.main(["--out", str(outdir), "universal", "--mode", "lattice",
                         "--dim", "1", "--eps", "0.25", "--samples", "128",
                         "--target", f"quantile:{target_path}"])
    assert code == 0
    doc = json.loads((outdir / "metrics.json").read_text())
    assert doc["empirical_w2"] <= 0.5  # gaussian-table transport is near identity
