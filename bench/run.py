"""Benchmark of the cvqss command line: end-to-end and per-layer metrics.

Run from the repository root::

    python3 bench/run.py --workload sweep-chain --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload in turn

One run is a closed loop with one client in one process: it calls
``cvqss.cli.main(argv)`` in-process, with stdout captured, and starts the
next op as soon as the previous one returns, after one untimed warm-up op,
until ``--seconds`` seconds have passed and at least MIN_OPS ops are done.
BLAS gets no more threads than the process may use cores (``nproc``). Every op's output is checked (see ``workloads.py``); a
nonzero exit or a failed check counts as a failed op.

On a shared 2-core VM the speed one process gets can swing by 2x within
seconds and drift within minutes, with op times and CPU times moving
together. A fixed reference probe (about 25 ms of work that shares no code
with cvqss) is therefore timed before every op and after the last, and
every end-to-end timing is reported at the reference machine speed:
seconds * REFERENCE_PROBE_S / (mean of the two probes around it), in the
unit ``ref_s``. The same statistics unscaled are printed as ``raw.*`` in
plain seconds. ``setup_s`` is scaled the same way, but its unit stays ``s``
because the benchmark format requires it.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops (see ``tracing.py``), reports the per-layer metrics
as low medians over the traced ops, and writes the spans to
``bench/out/trace-<workload>-seed<seed>.npz``. The names, units and set of
metrics in the last stdout line are those of ``BENCHMARK.json``; the lines
before it give every metric with its unit, the run's provenance and the
reason of each failed op. ``python3 -m pytest -q bench`` runs the
benchmark's self-tests.
"""

import os
import sys

# BLAS reads its thread count once, when numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, op_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh interpreters started to time set-up; the first one is not counted
#: because it may compile the bytecode cache.
SETUP_REPEATS = 9

#: Samples that must lie beyond the reported tail percentile.
TAIL_SAMPLES = 10

#: Fewest timed ops in a run: with TAIL_SAMPLES beyond it, the tail is then
#: at least the 80th percentile.
MIN_OPS = 5 * TAIL_SAMPLES + 1

#: Median time of ``reference_probe`` over five minutes on the reference
#: machine, a 2-core Xeon VM at 2.0 GHz.
REFERENCE_PROBE_S = 0.025

_PROBE_FACTOR = np.random.default_rng(0).standard_normal((7, 7))
_PROBE_SMALL = _PROBE_FACTOR @ _PROBE_FACTOR.T
_PROBE_MIX = np.random.default_rng(2).standard_normal((10, 10))


def reference_probe():
    """Seconds taken by fixed work that mixes what the ops do.

    Python dict churn (the CLI and keyrate loops), tiny symmetric eigensolves
    (the Schur complements) and a tall matrix product of fresh normals (the
    sampler). It shares no code with cvqss, so its time tracks only the speed
    the shared machine gives this process at that moment.
    """
    start = time.perf_counter()
    table = {str(i): i * 0.5 for i in range(20000)}
    sum(table.values())
    for _ in range(300):
        np.linalg.eigh(_PROBE_SMALL)
    rng = np.random.default_rng(1)
    for _ in range(10):
        rng.standard_normal((4000, 10)) @ _PROBE_MIX.T
    return time.perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bracketed(seconds, probes):
    """Pair each timing with the mean of the probes taken before and after it."""
    return [(value, (before + after) / 2)
            for value, before, after in zip(seconds, probes, probes[1:])]


def measure_setup():
    """(seconds, probe) pairs: fresh interpreter start to ``cvqss.cli`` imported."""
    code = "import time, cvqss.cli; print(repr(time.perf_counter()))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    seconds, probes = [], [reference_probe()]
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds.append(float(done.stdout) - start)
        probes.append(reference_probe())
    return bracketed(seconds, probes)[1:]


def scaled(samples):
    """Seconds at the reference machine speed of (seconds, probe) pairs."""
    return [seconds * REFERENCE_PROBE_S / probe for seconds, probe in samples]


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_SAMPLES beyond it."""
    ordered = sorted(samples)
    if len(ordered) <= TAIL_SAMPLES:
        return ordered[-1], 100.0
    rank = len(ordered) - 1 - TAIL_SAMPLES
    return ordered[rank], 100.0 * rank / (len(ordered) - 1)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(args, workload, argv):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.name,
        "benchmark_argv": sys.argv,
        "first_op_argv": argv,
    }


class Loop:
    """The closed loop: runs, times and checks ops of one workload."""

    def __init__(self, cli, workload, tracer=None):
        self.cli = cli
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.log = []  # (kind, seconds, probe before the op) in run order
        self.closing_probe = None
        self.layers = []
        self.combined_rate_z = []

    def op(self, traced=False, warm_up=False):
        argv = self.workload.argv()
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        probe = reference_probe()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if traced:
                    with self.tracer.active():
                        start = time.perf_counter()
                        code = self.cli.main(argv)
                        elapsed = time.perf_counter() - start
                else:
                    start = time.perf_counter()
                    code = self.cli.main(argv)
                    elapsed = time.perf_counter() - start
        except Exception:  # one broken op must not stop the run
            code, elapsed = None, None
            err.write(traceback.format_exc())
        self.attempted += 1
        stdout = out.getvalue()
        if code != 0:
            reason = f"exit code {code}: {err.getvalue().strip()[-300:]}"
        else:
            reason = self.workload.check(stdout)
        kind = "traced" if traced else "untraced"
        if reason is not None:
            self.failures.append(f"{' '.join(argv)}: {reason}")
            kind = "failed"
        elif warm_up:
            kind = "warm-up"
        self.log.append((kind, elapsed, probe))
        if kind in ("traced", "untraced") and hasattr(self.workload, "combined_rate_z"):
            self.combined_rate_z.append(self.workload.combined_rate_z(stdout))
        if traced:
            spans, counts = self.tracer.finish_op(" ".join(argv))
            if kind == "traced":
                metrics = op_layer_metrics(spans, counts)
                metrics["cli.output_bytes"] = len(stdout.encode("utf-8"))
                self.layers.append(metrics)
        return argv

    def run(self, seconds, trace):
        first_argv = self.op(warm_up=True)
        deadline = time.perf_counter() + seconds
        traced, done = False, 0
        while done < MIN_OPS or time.perf_counter() < deadline:
            self.op(traced=traced)
            traced = bool(trace) and not traced
            done += 1
        self.closing_probe = reference_probe()
        return first_argv

    def samples(self, kind):
        """(seconds, probe) of the passed ops of one kind ("untraced", "traced")."""
        probes = [probe for _, _, probe in self.log] + [self.closing_probe]
        return [pair for (logged, _, _), pair in zip(
            self.log, bracketed([seconds for _, seconds, _ in self.log], probes))
                if logged == kind]


def timing_metrics(times, setup_times, work_per_op):
    return {
        "setup_s": statistics.median(setup_times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail(times)[0],
        "work_per_s": work_per_op * len(times) / sum(times),
    }


def end_to_end_metrics(loop, setup):
    """End-to-end metrics at the reference machine speed, plus ``raw.*``."""
    samples = loop.samples("untraced")
    work = loop.workload.work_per_op
    metrics = timing_metrics(scaled(samples), scaled(setup), work)
    raw = timing_metrics([s for s, _ in samples], [s for s, _ in setup], work)
    metrics.update({f"raw.{name}": value for name, value in raw.items()})
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["error_rate"] = len(loop.failures) / loop.attempted
    return metrics, {
        "op_s_tail_percentile": tail(samples)[1],
        "timed_ops": len(samples),
        "work_unit": loop.workload.work_unit,
        "machine_speed": REFERENCE_PROBE_S / statistics.median(p for _, p in samples),
        "op_seconds_and_probe_s": samples,
        "setup_seconds_and_probe_s": setup,
    }


def per_layer_metrics(loop):
    """Low medians over traced ops (an observed value, so counts stay whole),
    in raw seconds; the tracing overhead compares scaled op times."""
    metrics = {name: statistics.median_low(op[name] for op in loop.layers)
               for name in loop.layers[0]}
    z = statistics.median(loop.combined_rate_z) if loop.combined_rate_z else 0.0
    metrics["simulation.combined_rate_z"] = z
    metrics["simulation.combined_rate_abs_z"] = abs(z)
    traced, untraced = loop.samples("traced"), loop.samples("untraced")
    metrics["trace.overhead"] = (statistics.median(scaled(traced))
                                 / statistics.median(scaled(untraced)) - 1.0)
    return metrics, {"traced_ops": len(traced), "untraced_ops": len(untraced)}


def run_one(args, spec):
    if not (SRC / "cvqss" / "cli.py").is_file():
        print(f"bench: no cvqss sources under {SRC}", file=sys.stderr)
        return 2
    setup = measure_setup() if args.trace == 0 else None
    sys.path.insert(0, str(SRC))
    import cvqss.cli as cli

    workload = WORKLOADS[args.workload](ROOT, np.random.default_rng(args.seed))
    loop = Loop(cli, workload, Tracer() if args.trace else None)
    first_argv = loop.run(args.seconds, args.trace)
    print("provenance: " + json.dumps(provenance(args, workload, first_argv)))
    for failure in loop.failures:
        print(f"FAILED {failure}")

    if not loop.samples("untraced") or (args.trace and not loop.layers):
        print("bench: no op passed its check", file=sys.stderr)
        return 1
    if args.trace:
        metrics, details = per_layer_metrics(loop)
        OUT.mkdir(exist_ok=True)
        loop.tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.npz")
        listed = spec["per_layer"]
    else:
        metrics, details = end_to_end_metrics(loop, setup)
        listed = spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}
    units["simulation.combined_rate_z"] = "sigma"
    for name, value in metrics.items():
        if name.startswith("raw."):
            unit = units[name.removeprefix("raw.")].replace("ref_s", "s")
        else:
            unit = units.get(name, "s" if name.endswith("_s") else "")
        print(f"{workload.name} {name} = {value:.6g} {unit}".rstrip())
    print(f"{workload.name} details: " + json.dumps(details))
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
                    for entry in listed},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
