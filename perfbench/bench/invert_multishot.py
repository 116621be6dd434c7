"""invert_multishot: 4-shot antiplane Gauss-Newton-CG on a 128 x 64
grid (8192 elements, 8385 nodes, 270 leapfrog steps per march).

The seed picks the target model, the shot positions and hypocenters,
and the starting model.  Each run does a fixed number of Newton steps
with a fixed CG count, so the work per iteration is the same on every
seed: one batched forward and adjoint march per gradient and per
Hessian-vector product, plus the line-search forward march.

A Newton iteration is timed from one gradient's return to the next:
each iteration ends with the gradient at its new iterate, and the
solve's initial gradient, which comes before the first iteration, is
left out.
"""

from __future__ import annotations

import time

import numpy as np

from harness import Tracer, log, median
from instrument import collect, instrument_inverse

NX, NZ, H = 128, 64, 100.0
RHO = 1000.0
PARAM_SHAPE = (16, 8)
NSTEPS = 270
N_SHOTS = 4
FAULT_ROWS = range(12, 44)
NEWTON = 2
CG_PER_NEWTON = 1
SETUP_REPEATS = 5
#: rounds of the four single-shot gradients that make the reference
REF_ROUNDS = 3
#: wall time of one Newton solve on a 2-vCPU x86 host; a run makes
#: seconds / SOLVE_S solves (at least one), the same count on every seed
SOLVE_S = 10.0


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    ix = np.sort(rng.choice(np.arange(16, NX - 16, 4), size=N_SHOTS, replace=False))
    return {
        "layer_depth": float(rng.uniform(2000.0, 4000.0)),
        "blob": (float(rng.uniform(2000.0, 10800.0)),
                 float(rng.uniform(1000.0, 5000.0)),
                 float(rng.uniform(-0.5e9, 0.5e9))),
        "shots": [(int(x), int(rng.integers(FAULT_ROWS.start, FAULT_ROWS.stop)))
                  for x in ix],
        "m0": float(rng.uniform(2.3e9, 2.7e9)),
    }


def build(inputs: dict, wrap=lambda layer, fn: fn):
    """Solver, parameter grid, shots with synthetic data, problem."""
    from repro.inverse.fault_source import FaultLineSource2D
    from repro.inverse.parametrization import MaterialGrid
    from repro.inverse.problem import ScalarWaveInverseProblem, Shot
    from repro.solver.scalarwave import RegularGridScalarWave

    solver = wrap("solver.assemble", RegularGridScalarWave)((NX, NZ), H, rho=RHO)
    grid = MaterialGrid(PARAM_SHAPE, (NX * H, NZ * H))
    bx, bz, amp = inputs["blob"]

    def target(p):
        blob = amp * np.exp(-((p[:, 0] - bx) ** 2 + (p[:, 1] - bz) ** 2) / 1.0e6)
        return 2.0e9 + 1.5e9 * (p[:, 1] > inputs["layer_depth"]) + blob

    m_true = grid.sample(target)
    mu_e = grid.to_elements(solver) @ m_true
    # a step stable for moduli well above both models keeps every
    # line-search trial stable too
    dt = solver.stable_dt(np.full(solver.nelem, 1.5 * m_true.max()))
    shots = []
    rec = solver.surface_nodes()[::4]
    for ix, hypo in inputs["shots"]:
        fault = FaultLineSource2D(solver, ix=ix, jz=FAULT_ROWS)
        params = fault.hypocentral_params(
            hypo_j=hypo, rupture_velocity=2000.0, u0=1.0, t0=0.3
        )
        u = solver.march(mu_e, fault.forcing(mu_e, params, dt), NSTEPS, dt,
                         store=True)
        shots.append(Shot(receivers=rec, data=u[:, rec], fault=fault,
                          source_params=params))
    prob = ScalarWaveInverseProblem.multi_shot(
        solver, grid, shots, dt, NSTEPS, barrier_gamma=1e-6, mu_min=0.5e9
    )
    m0 = np.full(grid.n, inputs["m0"])
    return prob, m0


class _GradientMarks:
    """The problem, noting the time each gradient returns."""

    def __init__(self, prob):
        self.prob = prob
        self.marks = []

    def __getattr__(self, name):
        return getattr(self.prob, name)

    def gradient(self, *args):
        out = self.prob.gradient(*args)
        self.marks.append(time.perf_counter())
        return out


def gauss_newton(prob, m0) -> dict:
    from repro.inverse.gauss_newton import gauss_newton_cg

    marked = _GradientMarks(prob)
    t0 = time.perf_counter()
    res = gauss_newton_cg(
        marked, m0, max_newton=NEWTON, gtol=0.0, cg_maxiter=CG_PER_NEWTON,
        cg_forcing=1e-12,
    )
    wall = time.perf_counter() - t0
    return {"result": res, "wall": wall, "iters": np.diff(marked.marks).tolist()}


def run(seed: int, seconds: float, trace: bool, ctx: dict) -> dict:
    from repro.inverse.problem import ScalarWaveInverseProblem

    inputs = make_inputs(seed)
    setup = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        prob, m0 = build(inputs)
        setup.append(time.perf_counter() - t)
    nelem = prob.solver.nelem
    if nelem < 4096:
        raise AssertionError(f"invert_multishot grid has {nelem} < 4096 elements")

    # identical Newton solves from the same start
    solves = [gauss_newton(prob, m0)
              for _ in range(max(1, int(seconds // SOLVE_S)))]
    failed = attempted = 0
    for s in solves:
        J = [h["J"] for h in s["result"].history]
        attempted += 1
        if len(J) != NEWTON + 1 or not all(b < a for a, b in zip(J, J[1:])):
            failed += 1
            log(f"invert_multishot: objective did not strictly decrease: {J}")

    # the multi-shot gradient at m0 equals the sum of single-shot ones;
    # the single-shot gradients, timed, are the unbatched reference
    t = time.perf_counter()
    g_multi = prob.gradient(m0)[0]
    grad_s = time.perf_counter() - t
    singles = [
        ScalarWaveInverseProblem(
            prob.solver, prob.grid, s.receivers, s.data, prob.dt, prob.nsteps,
            fault=s.fault, source_params=s.source_params,
            barrier_gamma=prob.barrier_gamma / N_SHOTS, mu_min=prob.mu_min,
        )
        for s in prob.shots
    ]
    single_s = []
    for _ in range(REF_ROUNDS):
        g_sum = 0.0
        for single in singles:
            t = time.perf_counter()
            g_sum = g_sum + single.gradient(m0)[0]
            single_s.append(time.perf_counter() - t)
    rel = float(np.linalg.norm(g_multi - g_sum) / np.linalg.norm(g_sum))
    attempted += 1
    if not rel <= 1e-12:
        failed += 1
        log(f"invert_multishot: multi-shot gradient off by {rel:.3e} relative")

    iters = [x for s in solves for x in s["iters"]]
    out = {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": median(setup),
            "op_p50_s": median(iters),
            "ref_s": N_SHOTS * median(single_s),
        },
        "detail": {
            "elements": nelem,
            "nodes": prob.solver.nnode,
            "nsteps": NSTEPS,
            "gn_iter_s": iters,
            "objective": [h["J"] for h in solves[0]["result"].history],
            "gradient_rel_err": rel,
            "multi_shot_gradient_s": grad_s,
            "single_shot_gradient_s": single_s,
            "solves": len(solves),
        },
    }
    if trace:
        untraced = sum(s["wall"] for s in solves)
        n0 = prob.n_wave_solves
        tracer = Tracer()
        instrument_inverse(tracer)
        try:
            t = time.perf_counter()
            build(inputs, tracer.wrap)
            setup_wall = time.perf_counter() - t
            traced = [gauss_newton(prob, m0) for _ in solves]
        finally:
            tracer.restore()
        solve_wall = sum(s["wall"] for s in traced)
        newton = sum(s["result"].newton_iterations for s in traced)
        cg = sum(s["result"].total_cg_iterations for s in traced)
        extra = {
            "machine.stream_gbs": ctx.get("stream_gbs", 0.0),
            "harness.trace_overhead_frac": solve_wall / untraced - 1.0,
            "harness.min_mesh_elements": nelem,
            "mesh.elements": nelem,
            "inverse.cg_per_newton": cg / newton if newton else 0.0,
            "inverse.wave_solves": prob.n_wave_solves - n0,
        }
        out["per_layer"], out["ledger"] = collect(
            tracer, setup_wall + solve_wall, extra
        )
    return out
