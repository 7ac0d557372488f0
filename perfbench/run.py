"""Benchmark of the pokegrasp pipeline; run from the repository root.

    python3 perfbench/run.py --workload tactile_loop --seed 0 --seconds 20 --trace 0

Imports the package from ``src/`` next to this directory, builds the
workload's inputs from ``--seed`` (set-up, repeated and timed), then
repeats the timed pass until ``--seconds`` have elapsed. Every pass must
produce the same SHA-256 of its per-item records; when a single pass
filled the time, the attempt slots ``CHECK_ATTEMPTS`` are run again and
must reproduce their records. With ``--trace 1`` it runs one plain and one
traced pass instead and reports per-layer metrics. The last line of
standard output is the result JSON; the lines before it hold run metadata,
the success table, the per-mode failure breakdown and the record digests.
See README.md in this directory.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = {"tactile_loop": 5, "camera_grasp": 5, "seg_eval": 3}


def _import_program():
    """Import the package from this checkout's src/, or exit with a message."""
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import scipy
        import pokegrasp
    except ImportError as exc:
        sys.exit(f"cannot import the program from {SRC}: {exc}")
    if SRC.resolve() not in Path(pokegrasp.__file__).resolve().parents:
        sys.exit(f"pokegrasp was imported from {pokegrasp.__file__}, not from {SRC}")
    return numpy, scipy


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "pokegrasp").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args, numpy, scipy):
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "POKEGRASP_THREADS": os.environ.get("POKEGRASP_THREADS")}


def report_pass(result):
    for mode, (succ, att) in result.table().items():
        print(f"table {mode} {succ}/{att}")
    for mode, counts in result.breakdown().items():
        print(f"breakdown {mode} " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    for name, first in result.errors.items():
        print(f"error {name}: {first}")
    if result.ap_report is not None:
        print("ap " + json.dumps(result.ap_report, sort_keys=True))
    print(f"error_share {result.failed}/{result.attempted} = "
          f"{result.failed / result.attempted:.6f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tactile_loop", "camera_grasp", "seg_eval"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    numpy, scipy = _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench_trace
    import bench_workloads as W
    import_s = time.perf_counter() - T_START

    print("meta " + json.dumps(metadata(args, numpy, scipy), sort_keys=True))
    inputs, digests, setup_times = None, [], []
    for _ in range(SETUP_REPEATS[args.workload]):
        start = time.perf_counter()
        built, digest = W.set_up(args.workload, args.seed)
        setup_times.append(time.perf_counter() - start)
        digests.append(digest)
        if inputs is None:
            inputs = built
        del built  # keep one copy of the inputs alive, as a single set-up would
    correct = len(set(digests)) == 1
    setup_s = import_s + statistics.median(setup_times)
    print(f"setup import_s={import_s:.4f} repeats_s={[round(s, 4) for s in setup_times]} "
          f"inputs_sha256={digests[0]}")

    def timed_pass(tracer=None):
        start = time.perf_counter()
        result = W.run_pass(args.workload, inputs, args.seed, tracer)
        return time.perf_counter() - start, result

    times, results, tracer = [], [], None
    if args.trace:
        for traced in (False, True):
            tracer = bench_trace.Tracer() if traced else None
            with tracer or contextlib.nullcontext():
                seconds, result = timed_pass(tracer)
            times.append(seconds)
            results.append(result)
    else:
        run_start = time.perf_counter()
        while not times or time.perf_counter() - run_start < args.seconds:
            seconds, result = timed_pass()
            times.append(seconds)
            results.append(result)
    for i, (seconds, result) in enumerate(zip(times, results)):
        print(f"pass {i + 1} wall_s={seconds:.4f} records_sha256={result.digest()}")
    if len(results) == 1:
        # one pass filled --seconds: repeat a sample of it instead of all of it
        check = W.run_pass(args.workload, inputs, args.seed, attempts=W.CHECK_ATTEMPTS)
        if args.workload == "seg_eval":
            agree = check.digest() == results[0].digest()
        else:
            agree = check.records == [r for r in results[0].records
                                      if r["attempt"] in W.CHECK_ATTEMPTS]
        print(f"recheck items={check.attempted} records_sha256={check.digest()}")
        if not agree:
            print("FAIL: the re-run items disagree with the pass")
            correct = False
    elif len({r.digest() for r in results}) != 1:
        print("FAIL: passes of one workload disagree")
        correct = False
    result = results[-1]
    report_pass(result)

    if args.workload == "seg_eval":
        oracle_ok, oracle = W.seg_oracle(inputs)
        print(f"oracle {'ok' if oracle_ok else 'FAIL'} " + json.dumps(oracle, sort_keys=True))
        correct = correct and oracle_ok

    completed = result.attempted - result.failed
    print(f"goodput_per_s {completed / statistics.median(times):.6f}")
    if args.trace:
        layer = tracer.metrics()
        layer["harness.trial_errors"] = result.failed if args.workload != "seg_eval" else 0
        layer["catalog.scene_set_s"] = statistics.median(setup_times)
        layer["trace.overhead_s"] = times[1] - times[0]
        for name in tracer.absent:
            print(f"trace absent {name}")
        for name in ("harness.run_poke_trial", "harness.run_grasp_trial", "metrics.evaluate_ap"):
            slowest = tracer.slowest(name)
            if slowest is not None:
                print(f"trace slowest {name} {slowest[0]} {slowest[1] * 1e3:.2f} ms")
        units = {name: unit for name, unit, _ in bench_trace.metric_specs()}
        out = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        wall_s = statistics.median(times)
        out = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
