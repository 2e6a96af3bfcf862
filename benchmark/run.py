"""Run one pixelinv benchmark workload, or all of them.

    python3 benchmark/run.py --workload forward --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
of the same checkout, single-threaded. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A run record (machine, versions,
inputs, pass times, errors) and, for traced runs, the spans are written
under ``benchmark/out/``. ``--workload all`` runs every workload in its
own process and prints each metric by name with its unit.
"""

import os

# One BLAS thread: every workload runs in one single-threaded process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import gzip
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("forward", "landscape", "stability")


def _import_package():
    """Import pixelinv from this checkout's ``src`` and nowhere else."""
    if not (SRC / "pixelinv" / "__init__.py").is_file():
        sys.exit(f"error: no pixelinv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pixelinv

    if Path(pixelinv.__file__).resolve().parent != SRC / "pixelinv":
        sys.exit(f"error: pixelinv imported from {pixelinv.__file__}, not from {SRC}")


def _blas():
    """BLAS vendor from numpy's build record and its live thread count."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads,
            "threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


def run_record(args, loadavg):
    import numpy as np
    import scipy

    nproc = len(os.sched_getaffinity(0))
    blas = _blas()
    if blas["threads"] is not None and blas["threads"] > nproc:
        sys.exit(f"error: BLAS uses {blas['threads']} threads on {nproc} cores")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "loadavg_start": loadavg,
        "machine": platform.machine(),
    }


def _run_all(args):
    """Each workload in its own process; a table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for key in ("attempted", "failed"):
            combined[key] += result[key]
        combined["correct"] &= result["correct"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"failed_frac {result['failed'] / result['attempted']:.6g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}")
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    loadavg = os.getloadavg()
    _import_package()
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(HERE))
    import workloads

    record = run_record(args, loadavg)
    result, detail = workloads.run(args.workload, args.seed, args.seconds, args.trace)
    spans = detail.pop("spans", None)
    record.update(detail, result=result)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with gzip.open(out / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "passes": spans}, fh)
    print(f"{args.workload}: {result['attempted']} attempted, {result['failed']} failed, "
          f"{detail['passes']} passes", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
