"""Strong scaling of the distributed solver over real processes.

Times the same fixed-size problem (the quickstart-scale conforming
basin box) three ways:

* the serial :class:`repro.solver.ElasticWaveSolver` (the baseline a
  parallel run has to beat);
* the distributed solver over the **simulated** transport (``SimWorld``
  — all ranks on one core; measures the bookkeeping overhead of the
  SPMD decomposition);
* the distributed solver over the **process** transport (``ProcWorld``
  — persistent workers, shared-memory boundary exchange, comm/compute
  overlap; real cores).

Also measures the transport's alpha/beta by ping-pong and the element
kernel's sustained flop rate, builds the calibrated machine model from
them (:func:`repro.parallel.perfmodel.machine_from_measurements`), and
reports its predicted step time next to the measured one.

Writes ``BENCH_scaling.json``.  ``cpu_count`` is recorded because the
numbers only mean what they appear to mean when the worker count fits
in physical cores — on a 1-core container every process-transport run
is oversubscribed and the speedup column shows overhead, not scaling.
For the same reason the header records the CPU affinity set, the BLAS
vendor and the master's BLAS thread count, and every row the BLAS
thread count each worker ran with (null where numpy's OpenBLAS cannot
be reached).

Usage::

    python benchmarks/bench_scaling.py                    # full run
    python benchmarks/bench_scaling.py --smoke            # CI-sized
    python benchmarks/bench_scaling.py --workers 1,2,4 --size 16
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from _common import export_telemetry, timed

from repro.backend import blas_threads
from repro.fem import ElasticOperator
from repro.materials import HomogeneousMaterial
from repro.mesh import extract_mesh, rcb_partition
from repro.octree import build_adaptive_octree
from repro.parallel import (
    DistributedWaveSolver,
    ProcWorld,
    SimWorld,
    machine_from_measurements,
    measure_transport,
    predict_scalability,
)
from repro.physics.elastic import lame_from_velocities
from repro.solver import ElasticWaveSolver

MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
L = 1000.0


def effective_cpu_count() -> int:
    """Cores this process may actually schedule on — the CPU affinity
    mask when the platform exposes one (containers routinely pin fewer
    cores than ``os.cpu_count()`` reports), else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def blas_vendor() -> str:
    """Name of the BLAS numpy was built against."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return "unknown"


def _blas_threads_program(comm, payload):
    return blas_threads()


class PointForce:
    """Picklable Gaussian point force (worker processes need to
    unpickle the force function)."""

    def __init__(self, node: int, nnode: int):
        self.node = node
        self.nnode = nnode

    def __call__(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        b = np.zeros((self.nnode, 3)) if out is None else out
        b.fill(0.0)
        b[self.node, 2] = 1e9 * np.exp(-(((t - 0.05) / 0.02) ** 2))
        return b


def build_problem(n: int):
    """Conforming uniform ``n^3`` mesh (power-of-two ``n``)."""
    level = int(np.log2(n))
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=level
    )
    mesh = extract_mesh(tree, L=L)
    return tree, mesh, PointForce(mesh.nnode // 2, mesh.nnode)


def serial_reference(mesh, tree, force, nsteps):
    """Serial wall time and the state ``u^nsteps`` (the distributed
    run's final state; the serial callback reports pre-update states,
    so march one extra step to observe it)."""
    solver = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)
    out = {}

    def cb(k, t, u):
        if k == nsteps:
            out["u"] = u.copy()

    # half-step offsets keep ceil(t_end / dt) unambiguous under float
    # roundoff: exactly nsteps + 1 serial steps, nsteps distributed
    _, elapsed = timed(
        "bench.serial", solver.run, force, (nsteps + 0.5) * solver.dt,
        callback=cb,
    )
    # don't charge the distributed runs for the extra observation step
    return solver.dt, elapsed * nsteps / (nsteps + 1), out["u"]


def measure_flop_rate(mesh, repeats: int = 20) -> float:
    """Sustained flop/s of one process running the element kernel —
    the ``flop_rate`` the calibrated machine model uses."""
    vs, vp, rho = MAT.query(mesh.elem_centers)
    lam, mu = lame_from_velocities(vs, vp, rho)
    op = ElasticOperator(mesh.conn, mesh.elem_h, lam, mu, mesh.nnode)
    u = np.random.default_rng(0).standard_normal((mesh.nnode, 3))
    out = np.empty_like(u)
    op.matvec(u, out=out)  # warm-up

    def _loop():
        for _ in range(repeats):
            op.matvec(u, out=out)

    _, dt = timed("bench.flop_rate", _loop)
    return op.flops_per_matvec * repeats / dt


def run_distributed(world, mesh, parts, force, dt, nsteps):
    solver = DistributedWaveSolver(mesh, MAT, parts, world, dt=dt)
    u, elapsed = timed(
        "bench.distributed", solver.run, force, (nsteps - 0.5) * dt
    )
    return elapsed, u, getattr(solver, "last_timings", None)


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", default="BENCH_scaling.json")
    ap.add_argument("--size", type=int, default=16,
                    help="mesh is size^3 elements (power of two)")
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--workers", default="1,2,4,8",
                    help="comma-separated worker counts")
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run (8^3 elements, 10 steps, 1-2 workers)")
    args = ap.parse_args(argv)
    if args.smoke:
        args.size, args.steps, args.workers = 8, 10, "1,2"
    worker_counts = [int(w) for w in args.workers.split(",")]

    tree, mesh, force = build_problem(args.size)
    dt, serial_s, u_ref = serial_reference(mesh, tree, force, args.steps)
    ref_scale = float(np.abs(u_ref).max())
    flop_rate = measure_flop_rate(mesh)
    vs, vp, rho = MAT.query(mesh.elem_centers)
    lam, mu = lame_from_velocities(vs, vp, rho)

    with ProcWorld(2) as w2:
        meas = measure_transport(w2)
    machine = machine_from_measurements(meas, flop_rate=flop_rate)

    ncores = effective_cpu_count()
    rows = []
    for nw in worker_counts:
        parts = (
            rcb_partition(mesh.elem_centers, nw)
            if nw > 1
            else np.zeros(mesh.nelem, dtype=np.int64)
        )
        sim_s, u_sim, _ = run_distributed(
            SimWorld(nw), mesh, parts, force, dt, args.steps
        )
        with ProcWorld(nw) as world:
            proc_s, u_proc, timings = run_distributed(
                world, mesh, parts, force, dt, args.steps
            )
            worker_blas = world.run_spmd(_blas_threads_program, [None] * nw)
        assert np.array_equal(u_sim, u_proc)
        err = float(np.abs(u_proc - u_ref).max() / ref_scale)
        predicted = predict_scalability(
            mesh, lam, mu, nw, machine=machine, baseline_rate=flop_rate
        )
        rows.append(
            {
                "workers": nw,
                "cpu_count": ncores,
                # more workers than schedulable cores: the speedup
                # column measures overhead, not scaling
                "oversubscribed": nw > ncores,
                "sim_seconds": sim_s,
                "proc_seconds": proc_s,
                "speedup_vs_serial": serial_s / proc_s,
                "sim_speedup_vs_serial": serial_s / sim_s,
                "max_rel_err_vs_serial": err,
                "model_step_seconds": predicted.step_seconds,
                "model_speedup_vs_serial": serial_s
                / (predicted.step_seconds * args.steps),
                "worker_compute_seconds": (
                    [t["t_compute"] for t in timings] if timings else None
                ),
                "worker_wait_seconds": (
                    [t["t_wait"] for t in timings] if timings else None
                ),
                "worker_blas_threads": worker_blas,
            }
        )
        print(
            f"P={nw:2d}  serial {serial_s:7.3f}s  sim {sim_s:7.3f}s  "
            f"proc {proc_s:7.3f}s  speedup {serial_s / proc_s:5.2f}x  "
            f"rel err {err:.2e}"
            + ("  [oversubscribed]" if nw > ncores else "")
        )

    result = {
        "problem": {
            "n": args.size,
            "nelem": int(mesh.nelem),
            "nnode": int(mesh.nnode),
            "nsteps": args.steps,
            "dt": dt,
        },
        "cpu_count": os.cpu_count(),
        "effective_cpu_count": ncores,
        "cpu_affinity": (
            sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None
        ),
        "blas": {"vendor": blas_vendor(), "threads": blas_threads()},
        "smoke": bool(args.smoke),
        "serial_seconds": serial_s,
        "flop_rate": flop_rate,
        "transport": meas,
        "scaling": rows,
    }
    with open(args.json, "w") as f:
        json.dump(result, f, indent=2)
    print(f"wrote {args.json} (cpu_count={result['cpu_count']})")
    export_telemetry("bench_scaling")
    return result


if __name__ == "__main__":
    main()
