"""Self-tests of the benchmark: output checks, tracer and exact counts.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from tracing import Tracer, op_layer_metrics, outermost, self_times
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))
import cvqss.cli as cli  # noqa: E402
import cvqss.keyrate  # noqa: E402

#: Schur-complement calls per op, fixed by each workload's scheme.
SCHUR_CALLS = {"sweep-chain": 2684, "threshold-star": 6465,
               "threshold-star-json": 1742, "simulate-star": 22}
REGRESS_CALLS = {"sweep-chain": 0, "threshold-star": 0,
                 "threshold-star-json": 0, "simulate-star": 12}


def workload(name, seed=7):
    return WORKLOADS[name](run.ROOT, np.random.default_rng(seed))


def one_op(load, tracer=None):
    argv = load.argv()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.active():
                code = cli.main(argv)
    return argv, code, out.getvalue()


@pytest.fixture(scope="module")
def untraced_ops():
    return {name: (workload(name),) + one_op(workload(name)) for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_op_passes_its_check(untraced_ops, name):
    load, _, code, stdout = untraced_ops[name]
    assert code == 0
    assert load.check(stdout) is None


def test_flipped_byte_in_sweep_csv_counts_as_failed_op():
    loop = run.Loop(cli, workload("sweep-chain"))
    golden = loop.workload.golden
    at = golden.index("0.057304959111")
    loop.workload.golden = golden[:at] + "1" + golden[at + 1:]
    loop.op()
    assert loop.attempted == 1
    assert len(loop.failures) == 1
    assert "line 2" in loop.failures[0]
    assert [kind for kind, _, _ in loop.log] == ["failed"]


def _replace_first(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def test_corrupted_threshold_outputs_fail(untraced_ops):
    load, _, _, stdout = untraced_ops["threshold-star"]
    access = next(line for line in stdout.splitlines() if line.startswith("access"))
    value = access.split()[2]
    assert load.check(_replace_first(stdout, access, access.replace(
        value, repr(float(value) * (1 + 1e-6))))) is not None
    assert load.check(_replace_first(stdout, access + "\n", "")) is not None
    assert load.check(stdout.replace("K = ", "K = 1")) is not None

    load, _, _, stdout = untraced_ops["threshold-star-json"]
    report = json.loads(stdout)
    report["combined_rate"] += 1e-6
    assert load.check(json.dumps(report)) is not None


def test_corrupted_simulate_output_fails(untraced_ops):
    load, _, _, stdout = untraced_ops["simulate-star"]
    row = next(line for line in stdout.splitlines() if "access {B1,B2}" in line)
    empirical = row.split()[-2]
    assert load.check(_replace_first(
        stdout, empirical, repr(float(empirical) * 1.2))) is not None
    verdicts = ["\nSECURE\n", "\nINSECURE\n"]
    if verdicts[1] in stdout:
        verdicts.reverse()
    assert load.check(_replace_first(stdout, *verdicts)) is not None


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly_and_outputs_stay_correct(name):
    load = workload(name)
    tracer = Tracer()
    per_op = []
    for _ in range(2):
        argv, code, stdout = one_op(load, tracer)
        assert code == 0
        assert load.check(stdout) is None
        per_op.append(op_layer_metrics(*tracer.finish_op(" ".join(argv))))
    first, second = per_op
    assert first["estimation.schur_calls"] == second["estimation.schur_calls"] == SCHUR_CALLS[name]
    assert first["simulation.regress_calls"] == second["simulation.regress_calls"] == REGRESS_CALLS[name]
    for key in ("keyrate.structures", "keyrate.redundant_calls", "gaussian.transform_calls"):
        assert first[key] == second[key] > 0


def test_tracing_keeps_sweep_bytes_and_restores_bindings():
    load = workload("sweep-chain")
    tracer = Tracer()
    _, code, stdout = one_op(load, tracer)
    assert code == 0 and stdout == load.golden
    spans, _ = tracer.finish_op("sweep")
    names = {span[0] for span in spans}
    # Calls made through names imported into cli and keyrate are seen too.
    assert {"cli.cmd_sweep", "keyrate.keyrate_qss", "estimation.conditional_variance_coords",
            "states.chain_topology"} <= names
    assert cli.keyrate_qss is cvqss.keyrate.keyrate_qss
    assert not hasattr(cli.keyrate_qss, "__wrapped__")
    assert not hasattr(cli._COMMANDS["sweep"], "__wrapped__")


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", -1, 0, 100], ["keyrate.f", 0, 10, 60],
             ["estimation.g", 1, 20, 50], ["estimation.g", 0, 70, 80]]
    assert self_times(spans) == [40, 20, 30, 10]
    assert outermost(spans, {"estimation.g", "keyrate.f"}) == [1, 3]


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_of_a_minimal_run_is_at_least_the_80th_percentile():
    value, percentile = run.tail(list(range(run.MIN_OPS)))
    assert percentile >= 80.0
    assert value == run.MIN_OPS - 1 - run.TAIL_SAMPLES
