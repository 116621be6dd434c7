"""dist_forward: ``DistributedWaveSolver.run`` on a 2-rank ``ProcWorld``
over the conforming 16^3 mesh (4096 elements), one exchange per step,
no local time stepping, against a serial ``ElasticWaveSolver`` run of
the same problem.

The seed picks the source node and the source pulse.  Serial and
distributed runs alternate in the timed window.
"""

from __future__ import annotations

import time

import numpy as np

from harness import Tracer, log, median
from instrument import collect, instrument_elastic

N = 16
L = 1000.0
NSTEPS = 60
NRANKS = 2
SETUP_REPEATS = 15


class PointForce:
    """Picklable Gaussian point force (the workers unpickle it)."""

    def __init__(self, node: int, nnode: int, t0: float, width: float):
        self.node, self.nnode, self.t0, self.width = node, nnode, t0, width

    def __call__(self, t: float, out=None):
        b = np.zeros((self.nnode, 3)) if out is None else out
        b.fill(0.0)
        b[self.node, 2] = 1e9 * np.exp(-(((t - self.t0) / self.width) ** 2))
        return b


def make_mesh(wrap=lambda layer, fn: fn):
    from repro.mesh import extract_mesh
    from repro.octree import build_adaptive_octree

    level = int(np.log2(N))
    tree = wrap("octree.build", build_adaptive_octree)(
        lambda c, s: np.full(len(c), 1.0 / N), max_level=level
    )
    mesh = wrap("mesh.extract", extract_mesh)(tree, L=L)
    return tree, mesh


def make_force(seed: int, mesh, dt: float) -> PointForce:
    rng = np.random.default_rng(seed)
    interior = np.flatnonzero(
        np.all((mesh.coords > 0.2 * L) & (mesh.coords < 0.8 * L), axis=1)
    )
    return PointForce(
        int(rng.choice(interior)), mesh.nnode,
        t0=float(rng.uniform(5, 15)) * dt, width=float(rng.uniform(3, 6)) * dt,
    )


def setup_distributed(mesh, material, dt, wrap=lambda layer, fn: fn):
    """Partition, solver and pool spawn: the cost before the first step."""
    from repro.mesh import rcb_partition
    from repro.parallel import DistributedWaveSolver, ProcWorld

    parts = wrap("parallel.partition", rcb_partition)(mesh.elem_centers, NRANKS)
    world = wrap("transport.spawn", ProcWorld)(NRANKS)
    dist = wrap("parallel.solver_setup", DistributedWaveSolver)(
        mesh, material, parts, world, dt=dt, steps_per_exchange=1, lts=0
    )
    return world, dist


def serial_run(solver, force):
    """Serial wall time per step and the state after NSTEPS steps (the
    callback sees pre-update states, so march one step more)."""
    state = {}

    def cb(k, t, u):
        if k == NSTEPS:
            state["u"] = u.copy()

    t = time.perf_counter()
    solver.run(force, (NSTEPS + 0.5) * solver.dt, callback=cb)
    return (time.perf_counter() - t) / (NSTEPS + 1), state["u"]


def dist_run(dist, force, dt):
    t = time.perf_counter()
    u = dist.run(force, (NSTEPS - 0.5) * dt)
    return (time.perf_counter() - t) / NSTEPS, u


def timed_window(solver, dist, force, seconds, rounds=None):
    """Alternate serial and distributed runs for ``seconds`` (or a
    fixed number of rounds); returns per-step times and final states."""
    serial, parallel, pairs = [], [], []
    t0 = time.perf_counter()
    while (rounds is None and (not pairs or time.perf_counter() - t0 < seconds)) \
            or (rounds is not None and len(pairs) < rounds):
        s, u_s = serial_run(solver, force)
        p, u_p = dist_run(dist, force, solver.dt)
        serial.append(s)
        parallel.append(p)
        pairs.append((u_s, u_p))
    return serial, parallel, pairs, time.perf_counter() - t0


def run(seed: int, seconds: float, trace: bool, ctx: dict) -> dict:
    from repro.materials import HomogeneousMaterial
    from repro.solver import ElasticWaveSolver

    material = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)
    tree, mesh = make_mesh()
    if mesh.nelem < 4096:
        raise AssertionError(f"dist_forward mesh has {mesh.nelem} < 4096 elements")
    solver = ElasticWaveSolver(mesh, tree, material, stacey_c1=False)
    force = make_force(seed, mesh, solver.dt)

    setup = []
    for i in range(SETUP_REPEATS):
        t = time.perf_counter()
        world, dist = setup_distributed(mesh, material, solver.dt)
        setup.append(time.perf_counter() - t)
        if i < SETUP_REPEATS - 1:
            world.close()
    try:
        # first runs load the worker programs and warm the buffers
        serial_run(solver, force)
        dist_run(dist, force, solver.dt)
        serial, parallel, pairs, wall = timed_window(solver, dist, force, seconds)
        failed = 0
        for u_s, u_p in pairs:
            rel = float(np.abs(u_p - u_s).max() / np.abs(u_s).max())
            if not rel <= 1e-12:
                failed += 1
                log(f"dist_forward: 2-rank state off by {rel:.3e} relative")
        out = {
            "attempted": len(pairs),
            "failed": failed,
            "end_to_end": {
                "setup_s": median(setup),
                "op_p50_s": median(parallel),
                "ref_s": median(serial),
            },
            "detail": {
                "elements": mesh.nelem,
                "nodes": mesh.nnode,
                "nsteps": NSTEPS,
                "step_ms": [1e3 * x for x in parallel],
                "serial_step_ms": [1e3 * x for x in serial],
                "speedup_vs_serial": median(serial) / median(parallel),
                "source_node": force.node,
            },
        }
        if trace:
            out["per_layer"], out["ledger"] = traced_pass(
                mesh, material, solver, world, dist, force, len(pairs), wall,
                ctx,
            )
    finally:
        world.close()
    return out


def traced_pass(mesh, material, solver, world, dist, force, rounds,
                untraced, ctx):
    """A traced setup, then the same rounds on the warm pool with the
    layers wrapped; afterwards one distributed run with the program's
    telemetry on, for the per-rank exchange timelines (workers are out
    of reach of the wrappers)."""
    from repro import telemetry

    tracer = Tracer()
    instrument_elastic(tracer)
    try:
        t0 = time.perf_counter()
        _, traced_mesh = make_mesh(tracer.wrap)
        spare, _ = setup_distributed(traced_mesh, material, solver.dt, tracer.wrap)
        spare.close()
        tracer.patch(world, "run_spmd", "transport.run_spmd")
        tracer.patch(dist, "run", "dist")
        stats0 = world.total_stats()
        t1 = time.perf_counter()
        timed_window(solver, dist, force, 0.0, rounds=rounds)
        t2 = time.perf_counter()
        stats1 = world.total_stats()
    finally:
        tracer.restore()
    telemetry.enable()
    try:
        dist_run(dist, force, solver.dt)
        summary = dist.last_timeline.summary()
    finally:
        telemetry.disable()
    comm = sum(r["comm_seconds"] for r in summary["per_rank"])
    busy = comm + sum(r["compute_seconds"] for r in summary["per_rank"])
    steps = rounds * NSTEPS
    extra = {
        "machine.stream_gbs": ctx.get("stream_gbs", 0.0),
        "harness.trace_overhead_frac": (t2 - t1) / untraced - 1.0,
        "harness.min_mesh_elements": mesh.nelem,
        "mesh.elements": mesh.nelem,
        "transport.msgs_per_step": (stats1.messages_sent - stats0.messages_sent) / steps,
        "transport.bytes_per_step": (stats1.bytes_sent - stats0.bytes_sent) / steps,
        "dist.exchange_wait_frac": comm / busy if busy else 0.0,
        "dist.imbalance": summary["mean_step_imbalance"],
    }
    return collect(tracer, t2 - t0, extra)
