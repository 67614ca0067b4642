"""The traced benchmark run wraps named functions of the package by name.

``bench/tracing.py`` replaces each layer's entry points with span-recording
wrappers; a renamed or removed function makes its wrap fail and crashes the
traced run. Installing and restoring the tracer here catches that first.
"""

import importlib.util
import os
import sys
from pathlib import Path

import shelterplan
import shelterplan.cli  # noqa: F401  (imports every layer the tracer wraps)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_wraps_and_restores_every_layer():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, shelterplan)
    finally:
        tracer.restore()
    assert tracer._installed, "no function was wrapped"
    assert tracer.unrestored() == []


def test_one_lp_per_node_under_tracer():
    # The traced benchmark checks that a branch and bound runs as many LPs
    # as it reports nodes; a node LP split into several calls fails here.
    from shelterplan.datagen import GenerationConfig, generate_instance
    from shelterplan.solver import SolverConfig

    inst = generate_instance(GenerationConfig(n_youth=30, horizon_T=60, bed_scale=0.1, seed=3120))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, shelterplan)
        lp = shelterplan.model.build(inst)
        sol = shelterplan.solver.branch_and_bound(lp, SolverConfig(rel_gap=0.0, node_limit=4))
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    assert tracing.self_check(tracer) == []
    (bnb,) = [k for k, span in enumerate(tracer.spans) if span.name == "solver.bnb"]
    lps = [span for span in tracer.spans if span.name == "solver.lp" and span.parent == bnb]
    assert sol.node_count == 4
    assert len(lps) == sol.node_count


def test_tracer_times_the_mps_export(tmp_path):
    # cli calls model.write_mps through the module, so the tracer's wrap
    # times the export and records the size of the file it wrote.
    from click.testing import CliRunner

    from shelterplan.cli import main

    runner = CliRunner()
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        generate = ["generate", "--youth", "12", "--days", "30", "--bed-scale", "0.1",
                    "--seed", "7", "--out", "inst.json"]
        assert runner.invoke(main, generate).exit_code == 0
        try:
            tracing.install(tracer, shelterplan)
            result = runner.invoke(main, ["solve", "--instance", "inst.json", "--out", "s.json",
                                          "--threads", "1", "--mps-out", "m.mps"])
        finally:
            tracer.restore()
        assert result.exit_code == 0, result.output
        (export,) = [span for span in tracer.spans if span.name == "model.write_mps"]
        assert export.attrs["bytes"] == os.path.getsize("m.mps")
