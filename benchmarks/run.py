"""lcoupler benchmark: one workload, timed end to end or traced by layer.

    python3 benchmarks/run.py --workload {sweep,link,rb} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; lcoupler is imported from its
``src`` directory and nowhere else, so a directory without the sources
exits with code 2 and prints no result.

Untraced (``--trace 0``) the run times set-up, then repeats the workload's
job in whole rounds until ``--seconds`` have passed (at least one round),
then checks the first round's outputs against references computed apart
from the program.  While the job runs, ``probe.py`` samples the host's
speed; the reported times are scaled to the development box's speed, and
the raw ones are kept in the record.  Traced (``--trace 1``) the run wraps
each layer's public functions and does exactly one round, so its counts
repeat exactly.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it, and
``benchmarks/results/<workload>-seed<N>-trace<T>.json``, record what the
run ran on and what each check found.
"""

import os
import sys
import time

SCRIPT_START = time.perf_counter()

# One BLAS thread: on a small shared box a second thread adds CPU time and
# run-to-run spread without shortening the job.  Set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
# the CLI reads its config from here when --config is absent
os.environ.pop("LCOUPLER_CONFIG", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"


def process_age_s() -> float:
    """Seconds since the kernel started this process (10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22, starttime, counted from field 3
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


AGE_AT_SCRIPT_START = process_age_s() - (time.perf_counter() - SCRIPT_START)


def since_process_start() -> float:
    return AGE_AT_SCRIPT_START + (time.perf_counter() - SCRIPT_START)


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, if its library is loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({w for w in fh.read().split() if "openblas" in w and ".so" in w})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    import lcoupler

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "lcoupler": lcoupler.__version__,
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


# span name -> the fields reported for it, as "<span>.<field>"
SPAN_METRICS = {
    "config.load_config": ("s",),
    "pulses.build_transfer_schedule": ("calls", "s"),
    "dynamics.build_hamiltonian": ("calls", "s"),
    "dynamics.simulate_transfer": ("calls", "self_s"),
    "dynamics.extract_channel": ("calls", "self_s"),
    "dynamics.SweepResult.to_csv": ("s",),
    "benchmarking.NoiseModel.from_config": ("s",),
    "channels.apply_to_qubits": ("calls", "s"),
    "cliffords.two_qubit_clifford": ("calls", "s"),
    "cliffords.compile_remote_cnot": ("calls",),
    "cliffords.invert_sequence": ("calls", "s"),
    "benchmarking.run_two_qubit_rb": ("self_s",),
    "benchmarking.run_network_benchmarking": ("self_s",),
    "benchmarking.spam_apply": ("calls", "s"),
    "benchmarking.fit_exponential": ("calls", "s"),
    "tomography.state_tomography": ("s",),
    "tomography.optimize_bell_phases": ("s",),
    "svg.write_svg": ("s",),
}


def layer_metrics(tracer, workload, outcome, round_s, cpu_s, overhead_s) -> dict:
    """Every per-layer metric of one traced round (set-up included)."""
    values = {
        f"{span}.{field}": (tracer.get(span, field), "count" if field == "calls" else "s")
        for span, fields in SPAN_METRICS.items()
        for field in fields
    }
    rb_calls = tracer.edges.get(("benchmarking.run_two_qubit_rb", "channels.apply_to_qubits"), 0)
    elements = outcome.outputs.get("elements", 0)
    values.update(
        {
            "cliffords.lookup_build_s": (getattr(workload, "lookup_build_s", 0.0), "s"),
            "dynamics.rhs_evals": (tracer.rhs_evals, "count"),
            "dynamics.solver_steps": (tracer.solver_steps, "count"),
            "channels.apply_to_qubits.calls_per_element": (
                rb_calls / elements if elements else 0.0,
                "calls/element",
            ),
            "process.cpu_s": (cpu_s, "s"),
            "trace.round_s": (round_s, "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "link", "rb"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lcoupler
    except ImportError as exc:
        print(f"cannot import lcoupler from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(lcoupler.__file__).resolve().parent.parent != src.resolve():
        print(f"lcoupler was imported from {lcoupler.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import tracing
    from probe import Probe
    from workloads import WORKLOADS

    out_dir = BENCH_DIR / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer().install() if args.trace else None

    workload = WORKLOADS[args.workload](args.seed, out_dir)
    setup_s = since_process_start()

    # untraced, the probe samples the host's speed while the job runs and
    # its own time is taken out of each round; traced, nothing interrupts
    probe = None if args.trace else Probe().start()
    rounds, round_cpu, outcomes = [], [], []
    job_start = time.perf_counter()
    while True:
        start, cpu_start = time.perf_counter(), time.process_time()
        outcomes.append(workload.run_round())
        end, cpu_end = time.perf_counter(), time.process_time()
        probe_s = probe.time_in(start, end) if probe else 0.0
        rounds.append(end - start - probe_s)
        round_cpu.append(cpu_end - cpu_start - probe_s)
        if args.trace or end - job_start >= args.seconds:
            break
    if probe is not None:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    found, problems = workload.check(outcomes[0])
    if any(o.fingerprint != outcomes[0].fingerprint for o in outcomes[1:]):
        problems.append("rounds on the same inputs gave different outputs")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    host = {}
    if tracer is None:
        # times at the development box's speed: this run's host ran the
        # probe kernel at `speed` times the reference rate
        speed = probe.speed()
        host = {"speed": speed, "probe_samples": len(probe.intervals),
                "setup_s": setup_s, "wall_s": statistics.median(rounds)}
        metrics = {
            "setup_s": {"value": setup_s * speed, "unit": "s"},
            "wall_s": {"value": statistics.median(rounds) * speed, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        overhead_s = tracing.wrapper_cost_s() * tracer.calls()
        metrics = layer_metrics(tracer, workload, outcomes[0], rounds[0], round_cpu[0], overhead_s)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "rounds_s": rounds,
        "rounds_cpu_s": round_cpu,
        "host": host,
        "checks": found,
        "problems": problems,
        "metrics": metrics,
    }
    if tracer is not None:
        record["spans"] = tracer.summary()
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n"
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"], "checks": found, "rounds_s": rounds,
                      "rounds_cpu_s": round_cpu, "host": host}, default=str))
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
