"""Run one textcaps benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-cnn-caps --seed 1 --seconds 20 --trace 0

Run it from the root of a textcaps checkout; it benchmarks the library under
``src/`` of that checkout, on one thread. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every output
check passed, 1 when one failed and 2 when the checkout has no library.
"""

import os

# BLAS and OpenMP read these once, when numpy loads, so they are set first.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the trials run (the last trial is finished)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def machine() -> dict:
    """The settings and versions every result is recorded with."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        commit = done.stdout.strip() or None
    return {
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = arg_parser()
    args = parser.parse_args(argv)
    if not (SRC / "textcaps" / "__init__.py").is_file():
        print(f"error: no textcaps library at {SRC / 'textcaps'}; "
              "run from the root of a textcaps checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import tracer as tracing

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    correct = True
    try:
        if args.trace:
            tracer = tracing.Tracer()
            result = bench.measure_traced(workload, args.seed, args.seconds, workdir, tracer)
            units = tracing.per_layer_units()
        else:
            result = bench.measure(workload, args.seed, args.seconds, workdir)
            units = bench.END_TO_END_UNITS
    except bench.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    except Exception:  # a library error fails the run, with its traceback
        traceback.print_exc()
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"machine": machine(), "workload": workload.name, "seed": args.seed,
                      "trace": args.trace}))
    if not correct:
        # The run is the operation that failed; no metric of it can be trusted.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for line in result.report:
        print(line)
    for name, value in result.metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
