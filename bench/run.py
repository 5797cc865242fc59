"""End-to-end benchmark of the paper's three experiment families.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each repeat is one fresh process
(``worker.py``) that imports the package from ``src``, loads and validates the
workload's config, and times one ``cli.run`` with one worker and one BLAS
thread. Untraced (``--trace 0``) runs repeat for S seconds, at least three
times, and report the median of each end-to-end metric. Traced runs make one
untraced and two traced repeats and report the per-layer metrics, the
tracing overhead, and whether the traced counts repeat exactly.

Every repeat's bundle is checked for correctness and compared byte for byte
with the first. The last line of standard output is the JSON result; the
result and the span files land under ``bench/out/<workload>/`` together with
their provenance.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("steps_per_s", "1/s"))
# a fixed constant near the speed probe's median kernel time on the machine
# in bench/README.md; times are reported at that core speed (see worker.py)
REFERENCE_PROBE_S = 0.00125
MIN_REPEATS = 3
TRACED_REPEATS = 2
DEADLINE_S = 170.0           # every run ends well inside three minutes
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_sha(root):
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, config):
    return {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "config_seeds": config["seeds"], "run_seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT),
        "machine": {"cores": os.cpu_count(), "platform": platform.platform(),
                    "processor": platform.machine()},
        "blas_threads_env": _ONE_THREAD,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def spawn(run_dir, k, deadline, traced=False):
    """One repeat in a fresh worker process; its record with setup_s added."""
    out_dir = os.path.join(run_dir, f"rep{k}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           os.path.join(run_dir, "config.json"), out_dir]
    if traced:
        cmd += ["--trace", os.path.join(run_dir, f"spans_rep{k}.csv.gz"),
                os.path.join(run_dir, "provenance.json")]
    started = _now()
    try:
        proc = subprocess.run(cmd, env={**os.environ, **_ONE_THREAD},
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"repeat {k} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"repeat {k} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - started
    record["speed"] = REFERENCE_PROBE_S / record["probe_s"]
    record["wall_s"] = _now() - started
    record["out_dir"] = out_dir
    return record


def measure(run_dir, seconds, deadline):
    """Untraced repeats for the run length, never fewer than MIN_REPEATS."""
    start = _now()
    repeats = []
    while True:
        repeats.append(spawn(run_dir, len(repeats), deadline))
        now = _now()
        if len(repeats) >= MIN_REPEATS and now + repeats[-1]["wall_s"] > start + seconds:
            return repeats


def end_to_end(repeats, steps):
    med = {m: statistics.median(r[m] * r["speed"] for r in repeats)
           for m in ("setup_s", "run_s")}
    med["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in repeats)
    med["steps_per_s"] = statistics.median(steps / (r["run_s"] * r["speed"])
                                           for r in repeats)
    return {m: {"value": med[m], "unit": u} for m, u in END_TO_END}


def per_layer(plain, traced, steps, step_layer, problems):
    first = traced[0]["layers"]
    for other in traced[1:]:
        moved = [m for m in tracer.COUNT_METRICS if first[m] != other["layers"][m]]
        if moved:
            problems.append(f"traced counts differ between traced runs: {moved}")
    if first[step_layer] != steps:
        problems.append(f"{step_layer} is {first[step_layer]}, the workload "
                        f"defines {steps} steps")
    values = {m: (first[m] if m in tracer.COUNT_METRICS
                  else statistics.median(r["layers"][m] * r["speed"] for r in traced))
              for m, _ in tracer.METRICS if m != "trace.overhead_s"}
    values["trace.overhead_s"] = (
        statistics.median(r["run_s"] * r["speed"] for r in traced)
        - plain["run_s"] * plain["speed"])
    return {m: {"value": values[m], "unit": u} for m, u in tracer.METRICS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy shrinks every workload, for the benchmark's tests")
    args = ap.parse_args(argv)
    deadline = _now() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "stabletrade", "cli.py")):
        print(f"error: no package source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2

    config, steps = workloads.build(args.workload, args.seed, args.size)
    run_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "config.json"), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    record = provenance(args, config)

    try:
        if args.trace:
            plain = spawn(run_dir, 0, deadline)
            record["versions"] = plain["versions"]
            with open(os.path.join(run_dir, "provenance.json"), "w") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
            traced = [spawn(run_dir, k, deadline, traced=True)
                      for k in range(1, 1 + TRACED_REPEATS)]
            repeats = [plain] + traced
        else:
            repeats = measure(run_dir, args.seconds, deadline)
            record["versions"] = repeats[0]["versions"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks    # imports the package; only after the timed repeats

    problems = checks.check_bundle(config, repeats[0]["out_dir"])
    problems += checks.compare_bundles([r["out_dir"] for r in repeats])
    if args.trace:
        metrics = per_layer(plain, traced, steps,
                            workloads.STEP_LAYER[args.workload], problems)
    else:
        metrics = end_to_end(repeats, steps)
    result = {
        "correct": not problems,
        "attempted": sum(r["cells"] for r in repeats),
        "failed": sum(len(r["failures"]) for r in repeats),
        "metrics": metrics,
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({**result, "problems": problems, "provenance": record,
                   "steps": steps,
                   "repeats": [{k: v for k, v in r.items() if k != "layers"}
                               for r in repeats]},
                  fh, indent=2, sort_keys=True)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
