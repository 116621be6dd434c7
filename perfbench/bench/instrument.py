"""Per-layer instrumentation for the traced run.

The wrappers sit on public entry points of each module and are
installed from here, never from inside ``src/``.  ``PER_LAYER`` is the
list of metrics a traced run reports; every workload reports every
metric, and a layer a workload never enters reads 0.
"""

from __future__ import annotations

import os
import time

from harness import median

#: (name, unit) of every per-layer metric, in report order.  "_s"
#: metrics are summed wall time over the traced window; a leaf layer's
#: time is its self time, a layer with wrapped children reports its
#: inclusive time (the ledger holds self times).
PER_LAYER = [
    ("scheduler.queue_wait_p50_s", "s"),
    ("scheduler.batch_width_mean", "count"),
    ("scheduler.dispatches", "count"),
    ("scheduler.resolve_lag_p50_s", "s"),
    ("engine.solve_s", "s"),
    ("engine.busy_frac", "ratio"),
    ("cache.build_s", "s"),
    ("cache.builds", "count"),
    ("cache.save_s", "s"),
    ("cache.bytes_written", "bytes"),
    ("cache.load_s", "s"),
    ("cache.disk_hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("octree.build_s", "s"),
    ("octree.balance_s", "s"),
    ("mesh.extract_s", "s"),
    ("mesh.constraints_s", "s"),
    ("solver.assemble_s", "s"),
    ("mesh.elements", "count"),
    ("mesh.hanging_nodes", "count"),
    ("wave_solver.scenario_step_s", "s"),
    ("wave_solver.scenario_steps", "count"),
    ("backend.matvec_s", "s"),
    ("backend.matvec_calls", "count"),
    ("backend.matmat_s", "s"),
    ("backend.matmat_calls", "count"),
    ("backend.matmat_width", "count"),
    ("backend.spmv_s", "s"),
    ("backend.matvec_gflop_computed", "GFlop"),
    ("backend.matvec_gbytes_computed", "GB"),
    ("backend.matvec_bw_frac", "ratio"),
    ("sources.forcing_s", "s"),
    ("sources.forcing_calls", "count"),
    ("io.npz_write_s", "s"),
    ("io.npz_bytes", "bytes"),
    ("serve.other_s", "s"),
    ("scalarwave.march_s", "s"),
    ("scalarwave.marches", "count"),
    ("scalarwave.march_width", "count"),
    ("scalarwave.apply_K_s", "s"),
    ("inverse.forward_s", "s"),
    ("inverse.gradient_s", "s"),
    ("inverse.hessvec_s", "s"),
    ("inverse.hessvec_calls", "count"),
    ("inverse.wave_solves", "count"),
    ("inverse.cg_per_newton", "count"),
    ("inverse.objective_evals", "count"),
    ("parallel.partition_s", "s"),
    ("parallel.solver_setup_s", "s"),
    ("transport.spawn_s", "s"),
    ("transport.run_spmd_s", "s"),
    ("dist.dispatch_overhead_s", "s"),
    ("transport.msgs_per_step", "count"),
    ("transport.bytes_per_step", "bytes"),
    ("dist.exchange_wait_frac", "ratio"),
    ("dist.imbalance", "ratio"),
    ("machine.stream_gbs", "GB/s"),
    ("harness.traced_wall_s", "s"),
    ("harness.layer_self_sum_s", "s"),
    ("harness.residual_s", "s"),
    ("harness.residual_frac", "ratio"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.min_mesh_elements", "count"),
]


def kernel_bytes(nelem: int, nnode: int, width: int = 1) -> int:
    """Computed (not measured) bytes one elastic stiffness application
    moves: read ``u`` and write ``out`` (3 doubles per node), write and
    re-read the gathered element vectors and the element products (24
    doubles per element each), and read the connectivity (8 int64) and
    the flattened scatter indices (24 int64) per element."""
    per_col = 8 * (2 * 3 * nnode + 4 * 24 * nelem)
    index = 8 * (8 + 24) * nelem
    return width * per_col + index


# ------------------------------------------------------------ hooks


def _on_matvec(tr, args, kwargs, result, t0, dt):
    op = args[0]
    tr.add("kernel.flops", op.flops_per_matvec)
    tr.add("kernel.bytes", kernel_bytes(op.nelem, op.nnode))


def _on_matmat(tr, args, kwargs, result, t0, dt):
    op, U = args[0], args[1]
    width = U.shape[2]
    tr.add("kernel.flops", op.flops_per_matmat(width))
    tr.add("kernel.bytes", kernel_bytes(op.nelem, op.nnode, width))
    tr.add("matmat.width", width)


def _on_run(tr, args, kwargs, result, t0, dt):
    solver, t_end = args[0], args[2]
    import math

    tr.add("wave.scenario_steps", math.ceil(t_end / solver.dt))


def _on_run_batch(tr, args, kwargs, result, t0, dt):
    import math

    solver, forces, t_end = args[0], args[1], args[2]
    tr.add("wave.scenario_steps", len(forces) * math.ceil(t_end / solver.dt))


def _on_get(tr, args, kwargs, result, t0, dt):
    tr.add("cache.gets", 1)
    if result is not None:
        tr.add("cache.hits", 1)


def _on_save(tr, args, kwargs, result, t0, dt):
    tr.add("cache.bytes_written", result or 0)


def _on_extract(tr, args, kwargs, result, t0, dt):
    tr.add("mesh.meshes", 1)
    tr.add("mesh.elements", result.nelem)
    prev = tr.counts.get("mesh.min_elements")
    if prev is None or result.nelem < prev:
        tr.counts["mesh.min_elements"] = result.nelem


def _on_constraints(tr, args, kwargs, result, t0, dt):
    tr.add("mesh.hanging_nodes", result.n_hanging)


def _on_npz(tr, args, kwargs, result, t0, dt):
    path = args[0] if args else kwargs.get("file")
    try:
        tr.add("io.npz_bytes", os.path.getsize(path))
    except (OSError, TypeError):
        pass


def _on_sched_submit(tr, args, kwargs, result, t0, dt):
    """Note when each request entered the queue and, through its
    future, when it was resolved.  Keyed by scenario identity; the
    record holds the scenario itself, so no later object can take
    over its id while the tracer lives."""
    scenario = args[1].scenario
    sid = id(scenario)
    resolved = tr.counts.setdefault("sched.resolved", {})
    tr.counts.setdefault("sched.submitted", {})[sid] = (scenario, t0)

    def on_done(_f):
        resolved[sid] = time.perf_counter()

    result.add_done_callback(on_done)


def _on_submit_batch(tr, args, kwargs, result, t0, dt):
    scenarios = args[2]
    tr.add("engine.batches", 1)
    tr.add("engine.batch_width", len(scenarios))
    log = tr.counts.setdefault("engine.dispatch_log", [])
    # the scenarios themselves, for the same reason as in the submit hook
    log.append((t0, t0 + dt, list(scenarios)))


# ------------------------------------------------------- installation


def instrument_elastic(tr) -> None:
    """The elastic forward path: service (scheduler, engine, cache),
    setup as ``repro.core.simulation`` binds it, the solver time loop,
    backend kernels, forcing, npz output, and the serve command."""
    from concurrent.futures import Future

    import numpy as np

    import repro.cli as cli
    import repro.core.simulation as sim_mod
    import repro.solver.wave_solver as ws
    from repro.fem.assembly import ElasticOperator
    from repro.service import cache as cache_mod
    from repro.service.engine import Engine
    from repro.service.scheduler import CoalescingScheduler
    from repro.sources.fault import SourceCollection

    tr.patch(CoalescingScheduler, "submit", "scheduler", _on_sched_submit)
    tr.patch(Engine, "submit_batch", "engine", _on_submit_batch)
    tr.patch(Engine, "submit", "engine")
    tr.patch(cache_mod.ArtifactCache, "get_or_build", "cache")
    tr.patch(cache_mod.ArtifactCache, "get", "cache", _on_get)
    tr.patch(cache_mod, "save_artifact", "cache.save", _on_save)
    tr.patch(cache_mod, "load_artifact", "cache.load")
    tr.patch(sim_mod.ForwardSimulation, "__init__", "setup.other")
    tr.patch(sim_mod, "wavelength_target", "octree.build")
    tr.patch(sim_mod, "build_adaptive_octree", "octree.build")
    tr.patch(sim_mod, "balance_octree", "octree.balance")
    tr.patch(sim_mod, "extract_mesh", "mesh.extract", _on_extract)
    tr.patch(sim_mod, "build_constraints", "mesh.constraints", _on_constraints)
    tr.patch(sim_mod, "ElasticWaveSolver", "solver.assemble")
    tr.patch(ws.ElasticWaveSolver, "run", "wave_solver", _on_run)
    tr.patch(ws.ElasticWaveSolver, "run_batch", "wave_solver", _on_run_batch)
    tr.patch(ElasticOperator, "matvec", "backend.matvec", _on_matvec)
    tr.patch(ElasticOperator, "matmat", "backend.matmat", _on_matmat)
    tr.patch(ws, "spmv_into", "backend.spmv")
    tr.patch(ws, "spmv_acc", "backend.spmv")
    tr.patch(SourceCollection, "forces_at", "sources")
    tr.patch(np, "savez_compressed", "io.npz", _on_npz)
    tr.patch(Future, "result", "wait")
    tr.patch(cli, "cmd_serve", "serve")


def _on_march(tr, args, kwargs, result, t0, dt):
    batch = kwargs.get("batch")
    tr.add("march.width", 1 if batch is None else int(batch))


def instrument_inverse(tr) -> None:
    """The scalar-wave inversion path: inverse problem entry points,
    the scalar march, and its stiffness application."""
    from repro.inverse.problem import ScalarWaveInverseProblem
    from repro.solver.scalarwave import RegularGridScalarWave

    tr.patch(ScalarWaveInverseProblem, "forward", "inverse.forward")
    tr.patch(ScalarWaveInverseProblem, "gradient", "inverse.gradient")
    tr.patch(ScalarWaveInverseProblem, "gn_hessvec", "inverse.hessvec")
    tr.patch(ScalarWaveInverseProblem, "objective", "inverse.objective")
    tr.patch(RegularGridScalarWave, "march", "scalarwave.march", _on_march)
    tr.patch(RegularGridScalarWave, "apply_K", "scalarwave.apply_K")


# ------------------------------------------------------------ metrics


def _queue_latencies(cnt) -> dict:
    """Queue wait (scheduler submit to batch start) and resolve lag
    (batch end to future resolution), medians over requests."""
    submitted = cnt.get("sched.submitted", {})
    resolved = cnt.get("sched.resolved", {})
    waits, lags = [], []
    for start, end, scenarios in cnt.get("engine.dispatch_log", []):
        for sid in map(id, scenarios):
            if sid in submitted:
                waits.append(start - submitted[sid][1])
            if sid in resolved:
                lags.append(resolved[sid] - end)
    return {
        "scheduler.queue_wait_p50_s": median(waits) if waits else 0.0,
        "scheduler.resolve_lag_p50_s": median(lags) if lags else 0.0,
    }


def collect(tr, wall_s: float, extra: dict) -> tuple[dict, dict]:
    """Every ``PER_LAYER`` metric from the tracer plus the workload's
    own measurements (``extra`` overrides), and the self-time ledger."""
    ledger = tr.ledger(wall_s)
    inc, self_s, calls, cnt = tr.incl_s, tr.self_s, tr.calls, tr.counts
    kernel_s = self_s["backend.matvec"] + self_s["backend.matmat"]
    stream = extra.get("machine.stream_gbs", 0.0)
    gbytes = cnt.get("kernel.bytes", 0.0) / 1e9
    gets = cnt.get("cache.gets", 0.0)
    m = {name: 0.0 for name, _ in PER_LAYER}
    m.update(_queue_latencies(cnt))
    m.update({
        "scheduler.dispatches": cnt.get("engine.batches", 0.0),
        "scheduler.batch_width_mean": (
            cnt.get("engine.batch_width", 0.0) / cnt["engine.batches"]
            if cnt.get("engine.batches") else 0.0
        ),
        "engine.solve_s": inc["engine"],
        "engine.busy_frac": inc["engine"] / wall_s if wall_s else 0.0,
        "cache.build_s": inc["setup.other"],
        "cache.builds": calls["setup.other"],
        "cache.save_s": self_s["cache.save"],
        "cache.bytes_written": cnt.get("cache.bytes_written", 0.0),
        "cache.load_s": self_s["cache.load"],
        "cache.disk_hits": calls["cache.load"],
        "cache.hit_ratio": cnt.get("cache.hits", 0.0) / gets if gets else 0.0,
        "octree.build_s": self_s["octree.build"],
        "octree.balance_s": self_s["octree.balance"],
        "mesh.extract_s": self_s["mesh.extract"],
        "mesh.constraints_s": self_s["mesh.constraints"],
        "solver.assemble_s": inc["solver.assemble"],
        "mesh.elements": (
            cnt.get("mesh.elements", 0.0) / cnt["mesh.meshes"]
            if cnt.get("mesh.meshes") else 0.0
        ),
        "mesh.hanging_nodes": (
            cnt.get("mesh.hanging_nodes", 0.0) / calls["mesh.constraints"]
            if calls["mesh.constraints"] else 0.0
        ),
        "wave_solver.scenario_steps": cnt.get("wave.scenario_steps", 0.0),
        "wave_solver.scenario_step_s": (
            inc["wave_solver"] / cnt["wave.scenario_steps"]
            if cnt.get("wave.scenario_steps") else 0.0
        ),
        "backend.matvec_s": self_s["backend.matvec"],
        "backend.matvec_calls": calls["backend.matvec"],
        "backend.matmat_s": self_s["backend.matmat"],
        "backend.matmat_calls": calls["backend.matmat"],
        "backend.matmat_width": (
            cnt.get("matmat.width", 0.0) / calls["backend.matmat"]
            if calls["backend.matmat"] else 0.0
        ),
        "backend.spmv_s": self_s["backend.spmv"],
        "backend.matvec_gflop_computed": cnt.get("kernel.flops", 0.0) / 1e9,
        "backend.matvec_gbytes_computed": gbytes,
        "backend.matvec_bw_frac": (
            gbytes / kernel_s / stream if kernel_s and stream else 0.0
        ),
        "sources.forcing_s": self_s["sources"],
        "sources.forcing_calls": calls["sources"],
        "io.npz_write_s": self_s["io.npz"],
        "io.npz_bytes": cnt.get("io.npz_bytes", 0.0),
        "serve.other_s": self_s["serve"],
        "scalarwave.march_s": inc["scalarwave.march"],
        "scalarwave.marches": calls["scalarwave.march"],
        "scalarwave.march_width": (
            cnt.get("march.width", 0.0) / calls["scalarwave.march"]
            if calls["scalarwave.march"] else 0.0
        ),
        "scalarwave.apply_K_s": self_s["scalarwave.apply_K"],
        "inverse.forward_s": inc["inverse.forward"],
        "inverse.gradient_s": inc["inverse.gradient"],
        "inverse.hessvec_s": inc["inverse.hessvec"],
        "inverse.hessvec_calls": calls["inverse.hessvec"],
        "inverse.objective_evals": calls["inverse.objective"],
        "parallel.partition_s": self_s["parallel.partition"],
        "parallel.solver_setup_s": self_s["parallel.solver_setup"],
        "transport.spawn_s": self_s["transport.spawn"],
        "transport.run_spmd_s": self_s["transport.run_spmd"],
        "dist.dispatch_overhead_s": self_s["dist"],
        "harness.traced_wall_s": wall_s,
        "harness.layer_self_sum_s": ledger["self_sum_s"],
        "harness.residual_s": ledger["residual_s"],
        "harness.residual_frac": ledger["residual_frac"],
    })
    if cnt.get("mesh.min_elements") is not None:
        m["harness.min_mesh_elements"] = cnt["mesh.min_elements"]
    m.update(extra)
    return {k: float(m[k]) for k, _ in PER_LAYER}, ledger
