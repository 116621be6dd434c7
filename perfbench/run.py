"""Layer-attributed benchmark of the earthquake-modeling reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload spool_drain --seed 1 --seconds 20 --trace 0

Workloads: ``spool_drain``, ``invert_multishot``, ``dist_forward``
(see ``BENCHMARK.json`` for why each exists).  Each runs in a fresh
Python process started without the BLAS/OpenMP thread variables, so
the libraries run at the defaults a user gets.  The
program under test is imported from ``src/`` of the checkout.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced pass and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are a readable summary
with the environment header.  The full result (environment, ledger of
layer self times, workload details) goes to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "bench"))
from harness import THREAD_VARS  # noqa: E402

CHILD_TIMEOUT_S = 170.0


def fail(msg: str, code: int = 2) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def child_env(root: str) -> dict:
    """The caller's environment without thread pinning and without
    ``REPRO_*`` switches (backend, faults, telemetry), with ``src/``
    and the benchmark on the import path."""
    env = {
        k: v for k, v in os.environ.items()
        if k not in THREAD_VARS and not k.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(HERE, "bench")]
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(root: str, args, scratch: str, out: str) -> int:
    cmd = [
        sys.executable, os.path.join(HERE, "bench", "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", scratch, "--out", out,
    ]
    proc = subprocess.Popen(
        cmd, cwd=root, env=child_env(root), stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail(f"{args.workload} exceeded {CHILD_TIMEOUT_S:.0f}s", 3)
    finally:
        # stop anything the workload left behind in its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def summary(result: dict) -> list[str]:
    env = result["environment"]
    blas = env["blas"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"seconds {result['seconds']}  trace {result['trace']}",
        f"env: affinity {env['cpu_affinity']} nproc {env['nproc']}  "
        f"blas {blas['vendor']} {blas['version']} "
        f"threads {blas['threads_effective']}  thread_env {env['thread_env']}",
        f"env: numpy {env['numpy']} scipy {env['scipy']} "
        f"python {env['python']} backend {env['backend']}  "
        f"git {env.get('git_sha')} dirty {env.get('dirty')}"
        + (f" src_sha256 {env['src_sha256'][:16]}" if env.get("src_sha256") else ""),
    ]
    for k, v in sorted(result.get("detail", {}).items()):
        lines.append(f"  {k} = {v}")
    ledger = result.get("ledger")
    if ledger:
        lines.append(
            f"ledger: wall {ledger['wall_s']:.4f}s = layers "
            f"{ledger['self_sum_s']:.4f}s + residual {ledger['residual_s']:.4f}s"
        )
        for k, v in sorted(ledger["self_s"].items(), key=lambda kv: -kv[1]):
            lines.append(f"  self {k:22s} {v:10.4f}s")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        return fail("no src/repro in the working directory; run from a checkout")
    if not os.path.isfile(spec_path):
        return fail("no BENCHMARK.json in the working directory")
    with open(spec_path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {names}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    scratch = os.path.join(root, ".perfbench_tmp", f"run-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    out = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    if os.path.exists(out):
        os.remove(out)
    try:
        code = run_child(root, args, scratch, out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    if code != 0:
        return fail(f"{args.workload} exited with code {code}", code or 1)
    with open(out) as f:
        result = json.load(f)

    source = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {}
    for m in wanted:
        value = source.get(m["name"])
        if value is None or not math.isfinite(value):
            return fail(f"metric {m['name']} missing or not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for line in summary(result):
        print(line)
    for name, m in metrics.items():
        print(f"  metric {name} = {m['value']:.6g} {m['unit']}")
    attempted, failed = int(result["attempted"]), int(result["failed"])
    print(f"  error_rate = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
