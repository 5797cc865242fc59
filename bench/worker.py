"""One measured harness run in a fresh process.

    python3 bench/worker.py CONFIG_JSON OUT_DIR [--trace SPANS_FILE PROVENANCE_JSON]

Loads and validates the experiment config through the public harness, then
times one ``cli.run`` with one worker. Prints one JSON line: the monotonic
clock reading when set-up finished (the parent subtracts its own reading
taken before it started this process), the run's wall time, the process's
peak resident memory, the failed cells, the numeric stack in use and the
core's speed probe (below). With ``--trace`` the run is traced, the
per-layer metrics are added, and the spans are written to SPANS_FILE under
the provenance record read from PROVENANCE_JSON.

The speed probe: the cores of a shared virtual machine slow down and speed
up by a fifth or more over minutes, as other tenants load the host, and
that drift swamps run-to-run comparisons. So the process pins itself to the
core it started on, and a probe thread on the same core times a fixed
pure-Python kernel every 50 ms in thread CPU time, from before the package
is imported until the run ends. The median kernel time measures how fast
the core ran during this repeat; the parent scales the repeat's times by it.
The probe holds the interpreter lock for about a millisecond per sample, so
it costs every repeat the same few percent.
"""

import json
import os
import platform
import resource
import sys
import threading
import time

PROBE_INTERVAL_S = 0.05


def _probe_kernel():
    total = 0
    for i in range(20_000):
        total += i * i
    return total


class SpeedProbe:
    """Thread CPU time of _probe_kernel, sampled until stop()."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append(self._once())

    @staticmethod
    def _once():
        t0 = time.thread_time()
        _probe_kernel()
        return time.thread_time() - t0

    def stop(self):
        """Median sample time; one sample is taken here if none was."""
        self._stop.set()
        self._thread.join()
        ordered = sorted(self.samples or [self._once()])
        return ordered[len(ordered) // 2]


def _current_cpu():
    # field 39 of /proc/self/stat; fields after the parenthesised name start at 3
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))


def _bytes_under(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _versions():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv):
    config_path, out_dir = argv[0], argv[1]
    spans_path, provenance_path = argv[3:5] if argv[2:3] == ["--trace"] else (None, None)
    os.sched_setaffinity(0, {_current_cpu()})
    probe = SpeedProbe()
    from stabletrade import cli

    cfg = cli.load_config(config_path)
    cfg.out_dir = out_dir
    cfg.validate()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    if spans_path:
        import tracer as tracing    # beside this script, so on sys.path

        tracer = tracing.Tracer()
        tracing.install(tracer)
    t0 = time.perf_counter()
    report = cli.run(cfg, workers=1)
    run_s = time.perf_counter() - t0
    probe_s = probe.stop()

    out = {
        "ready": ready,
        "run_s": run_s,
        "probe_s": probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": len(report.cells),
        "failures": report.failures,
        "versions": _versions(),
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, _bytes_under(out_dir))
        with open(provenance_path) as fh:
            provenance = json.load(fh)
        tracer.write_spans(spans_path, {**provenance, "versions": out["versions"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
