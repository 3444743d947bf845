"""Tests of the benchmark itself: its checks, inputs and tracer.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest

import layers
import run
import speed
import workloads

supermod, cli = run.import_cli()


class CorruptingCli:
    """Runs the real CLI and prints its output changed by `corrupt`."""

    def __init__(self, corrupt):
        self.corrupt = corrupt

    def main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        out = buf.getvalue()
        bad = self.corrupt(out)
        assert bad != out
        sys.stdout.write(bad)
        return rc


def bump_first_value(out):
    data = json.loads(out)
    key = min(data["values"])
    data["values"][key] = str(Fraction(data["values"][key]) + 1)
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def small_ops(tmp_path):
    inp = workloads._Inputs(str(tmp_path))
    order = inp.poset("hier4")
    rng = random.Random(0)
    ext = inp.game("ext", workloads.unanimity_game(rng, order, [order.reducible[0]]))
    viol = inp.game("viol", workloads.violated_game(rng, order, 2))
    return {
        "dim": (workloads.Op("dim", ["cone", "dim", inp.path("hier4")], workloads.check_dim(order)),
                lambda out: out.replace('"dimension": 5', '"dimension": 6')),
        "rays": (workloads.Op("rays", ["cone", "rays", inp.path("hier4")], workloads.check_rays("hier4")),
                 lambda out: out.replace('"1"', '"2"', 1)),
        "is_extreme": (workloads.Op("is_extreme", ["cone", "is-extreme", ext.path],
                                    workloads.check_extreme(True)),
                       lambda out: out.replace("true", "false", 1)),
        "moebius": (workloads.Op("moebius", ["game", "moebius", viol.path],
                                 workloads.check_moebius(viol)), bump_first_value),
    }


@pytest.mark.parametrize("cmd", ["dim", "rays", "is_extreme", "moebius"])
def test_a_corrupted_output_counts_as_failed(tmp_path, cmd):
    op, corrupt = small_ops(tmp_path)[cmd]
    runner = run.Runner(cli, [op])
    runner.batch()
    assert runner.failures == []
    runner.cli = CorruptingCli(corrupt)
    runner.batch()
    assert runner.attempted == 2
    assert len(runner.failures) == 1


def test_inputs_repeat_for_a_seed(tmp_path):
    def digest(k, seed):
        (tmp_path / str(k)).mkdir()
        return workloads.build("classify", seed, str(tmp_path / str(k))).inputs_sha256

    assert digest(0, 3) == digest(1, 3) != digest(2, 4)


def test_tracer_covers_and_restores_the_package(tmp_path):
    op = small_ops(tmp_path)["is_extreme"][0]
    before = {name: getattr(cli, name) for name in dir(cli) if isinstance(getattr(cli, name), types.FunctionType)}
    tracer = layers.Tracer()
    tracer.install(supermod)
    try:
        assert tracer.coverage_gaps() == []
        runner = run.Runner(cli, [op])
        runner.batch(tracer)
    finally:
        tracer.uninstall()
    assert runner.failures == []
    assert tracer.ops_without_library_span == []
    assert tracer.calls["cone.is_extreme"] == 1
    assert tracer.layer_metrics(1)["qlin.rank.extreme_calls"] == 2
    after = {name: getattr(cli, name) for name in before}
    assert after == before
    assert not hasattr(cli._CLASS_CHECKS["supermodular"], "__wrapped__")
    assert not hasattr(supermod.DownSetLattice.maximal_chains, "__wrapped__")


def test_speedometer_samples_during_the_call_and_leaves_its_kernels_out():
    meter = speed.Speedometer()
    result, raw, calibrated = meter.measure(lambda: time.sleep(0.2) or "done")
    assert result == "done"
    assert len(meter.during) >= 5
    assert 0.19 < raw < 0.2 + speed.PERIOD_S
    assert calibrated > 0


def test_exits_nonzero_without_the_package(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "core", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
