"""The benchmark's hooks into the program, checked from the tier-1 suite.

``perfbench/tracing.py`` wraps named functions and methods of the package
and ``perfbench/workloads.py::StepClock`` wraps both Adam ``update``
methods, counting one call per optimizer step. A refactor that renames or
moves one of them breaks tracing, so this file loads the tracer by path
and checks that it installs, counts and restores, and that every trainer
calls an ``update`` exactly once per step. It also loads
``perfbench/checks.py`` and runs the benchmark's decomposition and
permutation checkers on fresh outputs, so a change the benchmark would
refuse fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

# the tracer patches these modules, so all of them must be loaded
from couplingflow import (  # noqa: F401
    certificates,
    coupling,
    decomposer,
    matcore,
    metrics,
    separation,
    trainer,
    universal,
)
from test_trainer import TRAINERS, small_nets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(tracing):
    """The attributes of every namespace the tracer may patch: the package's
    modules and the classes that own a traced method."""
    spaces = [m for key, m in sys.modules.items()
              if m is not None and (key == "couplingflow" or key.startswith("couplingflow."))]
    spaces += [getattr(sys.modules[f"couplingflow.{layer}"], fn.split(".")[0])
               for layer, fns in tracing.TRACED.items() for fn in fns if "." in fn]
    return {id(space): dict(vars(space)) for space in spaces}


def test_tracer_installs_counts_and_restores():
    tracing = _load("tracing")
    before = _snapshot(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert trainer.PlnModel.__dict__["forward"] is not before[id(trainer.PlnModel)]["forward"]
        model = trainer.PlnModel(4, 2, 0.1, seed=0)
        z = np.random.default_rng(0).standard_normal((8, 4))
        trainer.pln_gradients(model, z, np.eye(4))
    finally:
        tracer.uninstall()
    assert tracer.calls["trainer.PlnModel.forward"] == 1
    assert tracer.calls["trainer.PlnModel.backward"] == 1
    after = _snapshot(tracing)
    for key, names in before.items():
        for attr, value in names.items():
            assert after[key].get(attr) is value, f"{attr} not restored"


def test_step_clock_finds_both_adam_updates():
    # StepClock reads cls.__dict__["update"] on both optimizer classes
    assert "update" in trainer.AdamState.__dict__
    assert "update" in trainer.AdamList.__dict__


@pytest.mark.parametrize("name", TRAINERS)
def test_step_clock_sees_one_update_per_step(name, monkeypatch):
    # StepClock's wrapping: each class's own update, taken from its __dict__;
    # a training job of n steps must mark exactly n optimizer steps
    small_nets(monkeypatch)
    calls = []
    for cls in (trainer.AdamState, trainer.AdamList):
        def update(*args, _original=cls.__dict__["update"], **kwargs):
            _original(*args, **kwargs)
            calls.append(None)
        monkeypatch.setattr(cls, "update", update)
    TRAINERS[name](trainer.TrainConfig(lr=1e-3, steps=7, batch_size=16, log_interval=3))
    assert len(calls) == 7


@pytest.mark.parametrize("n", [8, 16, 32])
def test_benchmark_checkers_accept_decompositions_and_permutations(n):
    checks = _load("checks")
    rng = np.random.default_rng(n)
    for _ in range(3):
        # the benchmark's targets: Gaussian, det > 0 and cond <= 1e4
        target = rng.standard_normal((n, n))
        while np.linalg.cond(target) > 1e4:
            target = rng.standard_normal((n, n))
        if np.linalg.det(target) < 0:
            target[0] = -target[0]
        seq = decomposer.decompose(target).layers
        round_trip = coupling.sequence_from_json(coupling.sequence_to_json(seq))
        assert checks.check_decomposition(target, seq, round_trip) is None
        p = rng.permutation(n)
        assert checks.check_permutation_layers(p, decomposer.permutation_layers(p)) is None
