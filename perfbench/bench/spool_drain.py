"""spool_drain: the real CLI path, ``repro submit`` then ``repro serve``.

Each cycle spools a seeded set of requests over three basin specs, each
request with its own horizon so nothing coalesces.  A cold ``serve``
pass drains them on an empty ``--cache-dir`` (builds and saves); the
requests are requeued and a restart pass with a fresh engine over the
same cache dir drains them again (loads from disk).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import time

import numpy as np

from harness import Tracer, log, median
from instrument import collect, instrument_elastic

#: (L, fmax, vs_min): three distinct basins, 5632 elements each at
#: max_level 5 and depth fraction 1/2
SPECS = [(8000.0, 0.5, 400.0), (8000.0, 0.5, 300.0), (8000.0, 0.5, 500.0)]
MAX_LEVEL = 5
DEPTH_FRAC = 0.5
PER_SPEC = 1
T_END_RANGE = (0.2, 0.6)


def make_inputs(seed: int) -> list[dict]:
    """Seeded requests: distinct horizons, scenario kinds, receivers."""
    rng = np.random.default_rng(seed)
    n = PER_SPEC * len(SPECS)
    # distinct horizons: an even spread over the range with seeded
    # jitter below half the spacing, dealt to the requests in seeded
    # order, so every seed asks for the same total simulated time
    # within a few steps
    grid = np.linspace(*T_END_RANGE, n)
    half = 0.5 * (grid[1] - grid[0])
    jitter = rng.uniform(-0.4 * half, 0.4 * half, n)
    t_ends = rng.permutation(np.round(grid + jitter, 3))
    out = []
    for i in range(n):
        L, fmax, vs = SPECS[i % len(SPECS)]
        nrec = int(rng.integers(3, 9))
        xy = rng.uniform(0.1 * L, 0.9 * L, size=(nrec, 2))
        rec = np.column_stack([xy, np.zeros(nrec)]).round(1).tolist()
        out.append({
            "argv": [
                "submit", "--L", repr(L), "--fmax", repr(fmax),
                "--vs-min", repr(vs), "--depth-frac", repr(DEPTH_FRAC),
                "--max-level", str(MAX_LEVEL), "--t-end", repr(float(t_ends[i])),
                "--scenario", str(rng.choice(["northridge", "strike-slip"])),
                "--receivers", json.dumps(rec),
            ],
        })
    return out


class _Engines:
    """Records the engines ``repro serve`` creates, so the cold pass's
    build seconds can be read from its own cache counters."""

    def __init__(self):
        import repro.service as service

        self.service = service
        self.original = service.Engine
        self.created = []
        created = self.created

        class RecordingEngine(self.original):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                created.append(self)

        service.Engine = RecordingEngine

    def restore(self):
        self.service.Engine = self.original


def serve(argv) -> float:
    from repro.cli import main as repro_main

    sink = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = repro_main(argv)
    wall = time.perf_counter() - t
    if code != 0:
        raise RuntimeError(f"repro {argv[0]} exited {code}: {sink.getvalue()[-400:]}")
    return wall


def cycle(inputs, workdir: str, engines: _Engines) -> dict:
    """Submit, cold drain, requeue, restart drain; returns timings."""
    from repro.cli import main as repro_main

    shutil.rmtree(workdir, ignore_errors=True)
    spool = os.path.join(workdir, "spool")
    cache = os.path.join(workdir, "cache")
    outs = {p: os.path.join(workdir, f"out-{p}") for p in ("cold", "restart")}
    with contextlib.redirect_stdout(io.StringIO()):
        for req in inputs:
            repro_main(req["argv"] + ["--spool", spool])
    common = ["--spool", spool, "--cache-dir", cache]
    cold = serve(["serve", *common, "--out-dir", outs["cold"]])
    builds = sum(e.cache.build_seconds for e in engines.created)
    nelem = [
        sim.mesh.nelem for e in engines.created for sim in e.cache._mem.values()
    ]
    engines.created.clear()
    # each serve pass stands for its own process: free the cold pass's
    # simulations before the restart pass, and this cycle's after it,
    # so peak memory does not depend on when the collector happens to run
    gc.collect()
    done = os.path.join(spool, "done")
    for name in sorted(os.listdir(done)):
        os.replace(os.path.join(done, name), os.path.join(spool, name))
    restart = serve(["serve", *common, "--out-dir", outs["restart"]])
    engines.created.clear()
    gc.collect()
    return {"cold": cold, "restart": restart, "builds": builds,
            "nelem": nelem, "outs": outs}


def check(c: dict, n: int) -> int:
    """Every output finite; restart outputs bitwise-equal to cold."""
    bad = 0
    names = sorted(os.listdir(c["outs"]["cold"]))
    if len(names) != n or sorted(os.listdir(c["outs"]["restart"])) != names:
        log(f"spool_drain: expected {n} outputs per pass, got {len(names)}")
        return n
    for name in names:
        with np.load(os.path.join(c["outs"]["cold"], name)) as a, \
                np.load(os.path.join(c["outs"]["restart"], name)) as b:
            if not (np.isfinite(a["data"]).all()
                    and np.array_equal(a["data"], b["data"])):
                bad += 1
                log(f"spool_drain: {name} not finite or restart differs")
    return bad


def run(seed: int, seconds: float, trace: bool, ctx: dict) -> dict:
    inputs = make_inputs(seed)
    n = len(inputs)
    workdir = os.path.join(ctx["scratch"], "spool")
    engines = _Engines()
    try:
        cycles, failed, attempted = [], 0, 0
        # one untimed cycle finishes lazy imports and first-touch costs
        cycle(inputs, workdir, engines)
        t_start = time.perf_counter()
        while not cycles or time.perf_counter() - t_start < seconds:
            c = cycle(inputs, workdir, engines)
            attempted += n
            failed += check(c, n)
            cycles.append(c)
        tracer = None
        if trace:
            untraced = sum(c["cold"] + c["restart"] for c in cycles)
            tracer = Tracer()
            instrument_elastic(tracer)
            traced_cycles = []
            try:
                for _ in cycles:
                    traced_cycles.append(cycle(inputs, workdir, engines))
            finally:
                tracer.restore()
            for c in traced_cycles:
                attempted += n
                failed += check(c, n)
    finally:
        engines.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    nelem = cycles[0]["nelem"]
    if len(nelem) != len(SPECS) or min(nelem) < 4096:
        raise AssertionError(f"spool_drain meshes {nelem}: need 3 of >= 4096")
    cold = [c["cold"] for c in cycles]
    restart = [c["restart"] for c in cycles]
    out = {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": median([c["builds"] for c in cycles]),
            "op_p50_s": median(cold),
            "ref_s": median(restart),
        },
        "detail": {
            "requests": n,
            "cycles": len(cycles),
            "drain_cold_s": cold,
            "drain_restart_s": restart,
            "cold_builds_s": [c["builds"] for c in cycles],
            "mesh_elements": nelem,
        },
    }
    if tracer is not None:
        wall = sum(c["cold"] + c["restart"] for c in traced_cycles)
        extra = {
            "machine.stream_gbs": ctx.get("stream_gbs", 0.0),
            "harness.trace_overhead_frac": wall / untraced - 1.0,
            "harness.min_mesh_elements": min(nelem),
        }
        out["per_layer"], out["ledger"] = collect(tracer, wall, extra)
    return out
