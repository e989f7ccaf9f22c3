"""Benchmark of the spreadmux simulator: run one workload, check its outputs,
print its metrics.

    python3 bench/run.py --workload {crosstalk,loss,fidelity,trace} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout, in one process with one compute
thread. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, taken from spans recorded around the program's functions. See
README.md next to this file.
"""

import os
import sys
import time

# Before numpy loads: one thread for BLAS and OpenMP, so one process uses
# one core of the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("crosstalk", "loss", "fidelity", "trace")


def since_process_start() -> float:
    """Seconds since the kernel started this process (Linux /proc).

    The start time has the kernel's clock-tick resolution, 10 ms here.
    """
    with open("/proc/self/stat") as fh:
        # field 22, counted after the parenthesised command name (field 2)
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def round_seed(seed: int, index: int) -> int:
    """The program's seed for one round: every round draws new inputs, so
    nothing the program keeps between calls can stand in for the work."""
    import numpy as np

    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def file_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import spreadmux.cli as cli
        import spreadmux.codes as codes
        import tracing
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: spreadmux was imported from {cli.__file__}, not from this "
              f"checkout's {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    recorder = tracing.SpanRecorder() if args.trace else None
    with tracing.traced(recorder) if recorder else nullcontext():
        for n in workload.register_counts:
            codes.msequence_code(codes.LfsrSpec(n))
    setup_s = since_process_start()

    out = OUT_DIR / workload.name
    plain, traced_s, failed = [], [], 0
    bytes_written = 0
    began = time.perf_counter()
    index = 0
    while True:
        # A traced run makes one plain call, then one traced call, then plain
        # calls again, all on the inputs of round 1, so that the counts repeat
        # for a seed and the tracing overhead compares like with like.
        trace_round = recorder is not None and index == 1
        seed = round_seed(args.seed, 1 if recorder is not None else index)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argv_ = workload.argv(seed, out)
        with tracing.traced(recorder) if trace_round else nullcontext():
            start = time.perf_counter()
            try:
                ok = cli.main(argv_) == 0
            except Exception:
                traceback.print_exc()
                ok = False
            elapsed = time.perf_counter() - start
        (traced_s if trace_round else plain).append(elapsed)
        if ok and trace_round:
            bytes_written = file_bytes(out)
        if not ok:
            failed += workload.cells
            print(f"bench: round {index} failed: spreadmux {' '.join(argv_)}",
                  file=sys.stderr)
        if index == 0:
            # what one command-line call costs: set-up plus its first call
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        index += 1
        if recorder is not None and index < 2:
            continue
        if time.perf_counter() - began + elapsed > args.seconds:
            break

    if not ok:
        problems = ["the last round failed, so its outputs were not checked"]
    else:
        try:
            problems = workload.check(seed, out)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"the outputs in {out} cannot be read: {exc!r}"]
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    run_s = statistics.median(plain)
    if recorder is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "deliveries_per_s": (workload.deliveries / run_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"{workload.name}.spans.json")
        metrics = tracing.layer_metrics(recorder.spans, workload.deliveries,
                                        workload.cells, bytes_written)
        metrics["tracing.run_s"] = (traced_s[0], "s")
        metrics["tracing.untraced_run_s"] = (run_s, "s")
        metrics["tracing.overhead"] = (traced_s[0] / run_s - 1.0, "ratio")
    rounds = len(plain) + len(traced_s)
    print(f"bench: {workload.name}: {rounds} rounds, run_s {', '.join(f'{t:.3f}' for t in plain)}",
          file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": rounds * workload.cells,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
