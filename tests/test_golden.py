"""Golden bundles: every ``RERUN_KINDS`` config of ``test_cli`` at seeds 0 and
1 writes the bundle bytes recorded in ``tests/golden/bundles.json``.

The bytes depend on the BLAS kernel and numpy's SIMD paths, so the configs
run in one subprocess pinned to OpenBLAS's Haswell kernel with one thread,
and with numpy's dispatch capped at x86-64-v3 (AVX2): the same bytes on any
x86-64-v3 CPU. The test fails, naming what it found, when the kernel cannot
be pinned or numpy or OpenBLAS is not the version the file records.

A change that moves bundle bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write

and says why in CHANGES.md.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "bundles.json"
SRC = Path(__file__).resolve().parents[1] / "src"
KERNEL = "Haswell"
# OPENBLAS_VERBOSE=2 makes OpenBLAS print the kernel it chose ("Core: ...")
# on stderr; numpy's dispatch above x86-64-v3 is switched off
PINNED_ENV = {"OPENBLAS_CORETYPE": KERNEL, "OPENBLAS_NUM_THREADS": "1",
              "OPENBLAS_VERBOSE": "2",
              "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _versions():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": f"{blas['name']} {blas['version']}"}


def _bundles(root):
    """{kind: {file: SHA-256}} of every RERUN_KINDS bundle, run in root."""
    from stabletrade import cli
    from test_cli import RERUN_KINDS, small_config, write_samples

    os.chdir(root)
    write_samples(root)
    out = {}
    for kind, over in RERUN_KINDS.items():
        rep = cli.run(small_config(Path(root) / kind, seeds=[0, 1], **over), workers=1)
        assert rep.failures == [], (kind, rep.failures)
        out[kind] = {name: hashlib.sha256((Path(rep.out_dir) / name).read_bytes()).hexdigest()
                     for name in sorted(os.listdir(rep.out_dir))}
    return out


def _pinned_run():
    """(kernel OpenBLAS chose or None, versions, bundles) from one pinned
    subprocess."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    with tempfile.TemporaryDirectory() as root:
        out = subprocess.run([sys.executable, __file__, "--child", root], env=env,
                             capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    core = re.search(r"Core: (\S+)", out.stderr)
    payload = json.loads(out.stdout)
    return core and core.group(1), payload["versions"], payload["bundles"]


def test_rerun_kinds_write_the_golden_bundles():
    golden = json.loads(GOLDEN.read_text())
    kernel, versions, bundles = _pinned_run()
    assert kernel == KERNEL, (
        f"OpenBLAS ran the {kernel or 'unreported'} kernel, not {KERNEL}: the golden "
        "bundles hold only under OPENBLAS_CORETYPE=Haswell")
    assert versions == golden["versions"], (
        f"numpy/OpenBLAS are {versions}, the golden bundles were recorded with "
        f"{golden['versions']}; regenerate them on the parent commit")
    assert sorted(bundles) == sorted(golden["bundles"])
    for kind, files in golden["bundles"].items():
        assert sorted(bundles[kind]) == sorted(files), f"{kind}: files differ"
        for name, digest in files.items():
            assert bundles[kind][name] == digest, f"{kind}: {name} changed bytes"


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps({"versions": _versions(), "bundles": _bundles(sys.argv[2])}))
    elif sys.argv[1:] == ["--write"]:
        kernel, versions, bundles = _pinned_run()
        if kernel != KERNEL:
            sys.exit(f"OpenBLAS ran the {kernel or 'unreported'} kernel, not {KERNEL}")
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps({"kernel": kernel, "versions": versions,
                                      "bundles": bundles}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
