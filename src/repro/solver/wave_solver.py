"""Explicit octree hexahedral elastic wave solver (paper eq. 2.4-2.5).

The semi-discrete system is

    ``M u'' + (C_AB + alpha M + beta K) u' + (K + K_AB) u = b``

with lumped mass ``M``, elementwise Rayleigh coefficients
``(alpha, beta)``, and Stacey absorbing boundary matrices ``C_AB``
(lumped) and ``K_AB`` (sparse ``c1`` coupling).  Central differences
with the diagonal/off-diagonal splitting of eq. (2.4) give the explicit
update; hanging-node continuity is restored each step by the projection
``B^T A B ubar = B^T b`` of eq. (2.5), which preserves diagonality.

Per step the solver performs one stiffness matvec (plus one
``beta``-weighted matvec when attenuation is on, with the previous
step's product cached), a sparse boundary product, and vector updates —
work linear in the number of grid points, as the paper requires.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.backend import spmv_acc, spmv_into
from repro.fem.assembly import ElasticOperator, lumped_mass
from repro.fem.damping import rayleigh_coefficients
from repro.io.seismogram import ReceiverArray, Seismograms
from repro.io.snapshots import SnapshotRecorder
from repro.mesh.hanging import HangingNodeInfo, build_constraints
from repro.mesh.hexmesh import HexMesh
from repro.octree.linear_octree import LinearOctree
from repro.physics.cfl import elem_stable_dt, stable_timestep
from repro.physics.elastic import lame_from_velocities
from repro.physics.stacey import stacey_boundary_matrices, stacey_coefficients
from repro.resilience import (
    DEFAULT_HEALTH_INTERVAL,
    check_finite,
    should_check,
    validate_cfl,
)
from repro.solver.checkpoint import CheckpointManager
from repro.solver.lts import (
    DEFAULT_MAX_RATE,
    LTSPlan,
    build_lts_plan,
    constraint_groups,
)
from repro.util.flops import FlopCounter

from repro import telemetry

#: absorbing boundary planes: all four sides plus the bottom;
#: the free surface is (2, 0) — the z = 0 plane
DEFAULT_ABSORBING = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1))


class ElasticWaveSolver:
    """Explicit elastodynamics on an octree hexahedral mesh.

    Parameters
    ----------
    mesh / tree:
        The mesh and the balanced octree it came from (for constraints
        and source location).
    material:
        Object with ``query(points_m) -> (vs, vp, rho)``.
    damping_ratio:
        Target Rayleigh damping ratio (0 disables attenuation).
    damping_band:
        ``(f_min, f_max)`` Hz band for the least-squares Rayleigh fit.
    absorbing:
        Iterable of ``(axis, side)`` absorbing planes.
    stacey_c1:
        Include the tangential-derivative ``c1`` terms of Stacey's
        condition (False = Lysmer viscous boundary).
    dt:
        Time step; defaults to the CFL-stable step.
    constraints:
        Precomputed :class:`HangingNodeInfo` (else built here).
    """

    def __init__(
        self,
        mesh: HexMesh,
        tree: LinearOctree,
        material,
        *,
        damping_ratio: float = 0.0,
        damping_band: tuple[float, float] = (0.1, 1.0),
        absorbing: Sequence[tuple[int, int]] = DEFAULT_ABSORBING,
        stacey_c1: bool = True,
        dt: float | None = None,
        cfl_safety: float = 0.5,
        constraints: HangingNodeInfo | None = None,
        lts: int | bool = 0,
    ):
        self.mesh = mesh
        self.tree = tree
        vs, vp, rho = material.query(mesh.elem_centers)
        lam, mu = lame_from_velocities(vs, vp, rho)
        self.lam, self.mu, self.rho = lam, mu, rho
        self.vs, self.vp = np.asarray(vs, float), np.asarray(vp, float)
        h = mesh.elem_h

        self.K = ElasticOperator(mesh.conn, h, lam, mu, mesh.nnode)
        self.m = lumped_mass(mesh.conn, h, rho, mesh.nnode)  # (nnode,)

        # Rayleigh attenuation, fit per element over the band
        if damping_ratio > 0:
            alpha_e, beta_e = rayleigh_coefficients(
                np.full(mesh.nelem, float(damping_ratio)), *damping_band
            )
            self.Kb = ElasticOperator(
                mesh.conn, h, lam * beta_e, mu * beta_e, mesh.nnode
            )
            #: hoisted out of the time loop: the diagonal is a full
            #: O(nelem) scatter, constant across steps
            self.Kb_diag = self.Kb.diagonal()
            self.m_alpha = lumped_mass(mesh.conn, h, rho * alpha_e, mesh.nnode)
            self._beta_e = beta_e
        else:
            self.Kb = None
            self.Kb_diag = None
            self.m_alpha = np.zeros(mesh.nnode)
            self._beta_e = None

        # Stacey absorbing boundaries
        faces = []
        for axis, side in absorbing:
            idx, fnodes = mesh.boundary_faces(axis, side)
            coeffs = stacey_coefficients(lam[idx], mu[idx], rho[idx])
            faces.append((fnodes, mesh.elem_h[idx], axis, side, coeffs))
        self.C_diag, self.K_AB = stacey_boundary_matrices(
            faces, mesh.nnode, include_c1=stacey_c1
        )
        self._has_kab = self.K_AB.nnz > 0

        # hanging-node constraints
        self.constraints = (
            constraints
            if constraints is not None
            else build_constraints(tree, mesh)
        )
        B = self.constraints.B
        self.B = B.tocsr()
        self.BT = B.T.tocsr()

        self.dt = dt if dt is not None else stable_timestep(
            h, vp, safety=cfl_safety
        )
        dt_ = self.dt
        # LHS diagonal of eq. (2.4)
        A = (self.m + 0.5 * dt_ * self.m_alpha)[:, None] + 0.5 * dt_ * self.C_diag
        if self.Kb is not None:
            A = A + 0.5 * dt_ * self.Kb_diag
        self.A = A
        # row-sum (lumped) projection of the diagonal LHS: hanging-node
        # mass is distributed to the masters by the constraint weights,
        # which conserves mass and "preserves the diagonality of A"
        self.A_bar = self.BT @ A
        self._inv_A_bar = 1.0 / self.A_bar
        # c1 coupling pre-scaled by -dt^2 so the time loop accumulates
        # it into the residual with one sparse product, no temporaries
        self._K_AB_mdt2 = (self.K_AB * (-(dt_**2))).tocsr()
        self.flops = FlopCounter()
        #: default clustered-LTS setting for run/run_batch: 0/False =
        #: global dt, True = LTS at DEFAULT_MAX_RATE, an int = the
        #: max-rate cap (power of two)
        self.lts = lts
        self._lts_plan_cache = None
        self._lts_exec_cache = None

    @property
    def nnode(self) -> int:
        return self.mesh.nnode

    def memory_bytes(self) -> int:
        """Solver working-set estimate (the paper's ~10x hex-vs-tet
        memory claim is measured from this and the tet counterpart):
        everything the solver actually holds — connectivity, kernel
        workspace, state/force/scratch buffers, LHS diagonals, and the
        sparse boundary/constraint structures."""
        n = 0
        n += self.mesh.conn.nbytes
        n += 8 * (2 * self.mesh.nelem)  # material coefficient vectors
        n += self.K.workspace_bytes()  # gather/scatter plan + buffers
        # time-loop vectors: u_prev, u, u_next, r, Ku, tmp, fbuf
        nvec = 7
        if self.Kb is not None:
            n += self.Kb.workspace_bytes()
            n += self.Kb_diag.nbytes
            nvec += 2  # kb_u, kb_u_prev caches
        n += 8 * 3 * self.nnode * nvec
        n += self.m.nbytes + self.m_alpha.nbytes
        n += self.A.nbytes + self.A_bar.nbytes + self._inv_A_bar.nbytes
        n += self.C_diag.nbytes
        for S in (self.K_AB, self._K_AB_mdt2, self.B, self.BT):
            n += S.data.nbytes + S.indices.nbytes + S.indptr.nbytes
        n += 8 * 3 * self.A_bar.shape[0]  # projected residual buffer
        return n

    # ----------------------------------------------- local time stepping

    def lts_plan(self, *, max_rate: int = DEFAULT_MAX_RATE) -> LTSPlan:
        """Clustered-LTS plan for this solver's mesh/material: the
        per-element stable steps are binned into power-of-two rate
        clusters, 2-to-1 smoothed, with hanging-node constraint
        closures clamped to a common rate (the projection then splits
        into independent per-level blocks)."""
        c = self._lts_plan_cache
        if c is not None and c[0] == max_rate:
            return c[1]
        plan = build_lts_plan(
            self.mesh.conn,
            self.nnode,
            dt=self.dt,
            elem_dt=elem_stable_dt(self.mesh.elem_h, self.vp, safety=1.0),
            max_rate=max_rate,
            groups=constraint_groups(self.constraints.masters),
        )
        self._lts_plan_cache = (max_rate, plan)
        return plan

    def _lts_exec(self, plan: LTSPlan) -> list[dict]:
        """Static per-level execution state for the clustered loop: a
        stiffness (and Rayleigh) operator over the cluster's elements
        (own + one-coarser halo), the cluster-step diagonals restricted
        to its own nodes, the per-level hanging-node projection block,
        and the own-row slice of the Stacey ``c1`` coupling prescaled
        by ``-dt_c^2``.  Cached on the plan object."""
        c = self._lts_exec_cache
        if c is not None and c[0] is plan:
            return c[1]
        conn, h = self.mesh.conn, self.mesh.elem_h
        # bar (independent) dof -> rate of its constraint closure; the
        # closures are rate-clamped, so each bar column's support lives
        # entirely inside one level
        col_rate = plan.node_rate[self.constraints.independent]
        levels = []
        for lv in plan.levels:
            e = lv.elems
            own = lv.own_nodes
            dtc = lv.rate * self.dt
            K_c = ElasticOperator(
                conn[e], h[e], self.lam[e], self.mu[e], self.nnode
            )
            Kb_c = None
            if self.Kb is not None:
                be = self._beta_e[e]
                Kb_c = ElasticOperator(
                    conn[e], h[e], self.lam[e] * be, self.mu[e] * be,
                    self.nnode,
                )
            A_c = (self.m[own] + 0.5 * dtc * self.m_alpha[own])[:, None] \
                + 0.5 * dtc * self.C_diag[own]
            if self.Kb_diag is not None:
                A_c = A_c + 0.5 * dtc * self.Kb_diag[own]
            cols = np.nonzero(col_rate == lv.rate)[0]
            B_c = self.B[own][:, cols].tocsr()
            BT_c = B_c.T.tocsr()
            own_dofs = (own[:, None] * 3 + np.arange(3)).ravel()
            kab = (self.K_AB[own_dofs] * (-(dtc * dtc))).tocsr()
            levels.append(
                {
                    "rate": lv.rate,
                    "dtc": dtc,
                    "dtc2": dtc * dtc,
                    "hdc": 0.5 * dtc,
                    "own": own,
                    "interp": lv.interp_nodes,
                    "K": K_c,
                    "Kb": Kb_c,
                    "kb_diag": (
                        None if self.Kb_diag is None else self.Kb_diag[own]
                    ),
                    "m2": 2.0 * self.m[own],
                    "prev_coef": (0.5 * dtc * self.m_alpha[own]
                                  - self.m[own])[:, None]
                    + 0.5 * dtc * self.C_diag[own],
                    "B": B_c,
                    "BT": BT_c,
                    "inv_A_bar": 1.0 / (BT_c @ A_c),
                    "kab": kab if kab.nnz else None,
                }
            )
        self._lts_exec_cache = (plan, levels)
        return levels

    @staticmethod
    def _lts_receiver_slots(levels: list[dict], receivers) -> list[tuple]:
        """Per-level receiver membership: each receiver node is owned
        by exactly one level; returns ``(receiver idx, position of the
        node inside the level's own-node array)`` pairs per level."""
        slots = []
        for lev in levels:
            own = lev["own"]
            nodes = receivers.nodes
            pos = np.searchsorted(own, nodes)
            pos_c = np.minimum(pos, max(len(own) - 1, 0))
            mask = (pos < len(own)) & (own[pos_c] == nodes)
            ridx = np.nonzero(mask)[0]
            slots.append((ridx, pos[ridx]))
        return slots

    @staticmethod
    def _lts_fill_receiver_gaps(data, levels, slots, nsteps: int) -> None:
        """Receivers owned by a coarse cluster are sampled at its own
        cadence; linearly interpolate the unrecorded columns so every
        trace comes back on the fine-step time axis."""
        cols = np.arange(nsteps, dtype=float)
        for lev, (ridx, _) in zip(levels, slots):
            rate = lev["rate"]
            if rate == 1 or not len(ridx):
                continue
            filled = np.arange(0, nsteps, rate)
            fcols = filled.astype(float)
            for i in ridx:
                for comp in range(data.shape[1]):
                    data[i, comp, :] = np.interp(
                        cols, fcols, data[i, comp, filled]
                    )

    def _lts_dispatch(self, lts, t_end: float) -> tuple[LTSPlan | None, int]:
        """Resolve the effective LTS setting for a run: returns the
        non-trivial plan (or None for the global loop) and ``nsteps``.
        The march must end on a sync boundary (all nodes at the same
        time), so ``nsteps`` is rounded **up** to the next multiple of
        the coarsest cluster rate — a few extra steps past ``t_end``,
        never fewer."""
        lts = self.lts if lts is None else lts
        nsteps = int(np.ceil(t_end / self.dt))
        if not lts:
            return None, nsteps
        if isinstance(lts, LTSPlan):
            plan = lts
        else:
            cap = DEFAULT_MAX_RATE if lts is True else int(lts)
            plan = self.lts_plan(max_rate=cap)
        if plan.trivial:
            return None, nsteps
        r_max = plan.max_rate
        return plan, -(-nsteps // r_max) * r_max

    # -------------------------------------------------------- time loops
    #
    # One global and one clustered-LTS march, both B-generic like
    # RegularGridScalarWave.march: ``batch=None`` advances ``(nnode, 3)``
    # state, ``batch=B`` advances ``(nnode, 3, B)`` blocks.  Only the
    # kernel call (matvec vs matmat), the forcing fill and the
    # per-scenario receiver rows depend on ``batch``; the diagonal
    # updates broadcast, the CSR products run over all ``3 B`` columns,
    # and every mechanism (resume, checkpoint, faults, health, CFL,
    # spans) is written once.

    @staticmethod
    def _forcing(forces, nnode: int, batch: int | None):
        """``force(t) -> (nnode, 3[, B]) block or None``.  Batched, each
        scenario fills its own column; a column that goes quiet is
        zeroed once and then skipped until its source speaks again (the
        content is zero either way, so per-column bit-identity holds)."""
        if batch is None:
            fn = getattr(forces, "forces_at", forces)
            fbuf = np.zeros((nnode, 3))
            return lambda t: fn(t, fbuf)
        fns = [getattr(fc, "forces_at", fc) for fc in forces]
        fbuf = np.zeros((nnode, 3, batch))
        fcol = np.zeros((nnode, 3))  # contiguous per-scenario scratch
        col_live = np.zeros(batch, dtype=bool)  # column nonzero in fbuf

        def fill(t):
            live = False
            for b, fn in enumerate(fns):
                fb = fn(t, fcol)
                if fb is None:
                    if col_live[b]:
                        fbuf[:, :, b] = 0.0
                        col_live[b] = False
                else:
                    fbuf[:, :, b] = fb
                    col_live[b] = True
                    live = True
            return fbuf if live else None

        return fill

    @staticmethod
    def _resume(checkpoint, state: dict, data) -> int:
        """Load the latest valid snapshot into ``state``'s arrays and the
        recorded seismogram prefix (in place); returns the step to
        continue from (0 without a snapshot)."""
        ck = checkpoint.latest()
        if ck is None:
            return 0
        for key, arr in state.items():
            if key in ck.arrays:
                arr[:] = ck.arrays[key]
        if data is not None and "rec_data" in ck.arrays:
            (rec,) = data
            prefix = ck.arrays["rec_data"]
            rec[:, :, : prefix.shape[2]] = prefix
        return int(ck.meta["next_k"])

    @staticmethod
    def _save(checkpoint, step: int, state: dict, data, meta: dict) -> None:
        """Snapshot ``state`` and the seismogram prefix.  Checkpointed
        marches come from :meth:`run`: ``data`` holds one scenario."""
        arrays = dict(state)
        if data is not None:
            (rec,) = data
            arrays["rec_data"] = rec[:, :, : meta["next_k"]]
        checkpoint.save(step, arrays, meta)

    @staticmethod
    def _rayleigh(r, tmp, kb_u, kb_diag, u, kb_u_prev, hd) -> None:
        """``r -= hd (Kb u - diag(Kb) u) + hd Kb u^{k-1}``, in place."""
        np.multiply(kb_u, hd, out=tmp)
        np.subtract(r, tmp, out=r)
        np.multiply(kb_diag, u, out=tmp)
        np.multiply(tmp, hd, out=tmp)
        np.add(r, tmp, out=r)
        np.multiply(kb_u_prev, hd, out=tmp)
        np.add(r, tmp, out=r)

    def _march(
        self, forces, t_end, batch, recs, span, *, width=None,
        record="velocity", callback=None, snapshots=None, checkpoint=None,
        resume=False, faults=None, health_interval=DEFAULT_HEALTH_INTERVAL,
        lts=None,
    ) -> list[Seismograms] | None:
        """Shared prologue of :meth:`run` and :meth:`run_batch`: resolve
        the schedule, then run the global or the clustered loop.
        ``recs`` is one :class:`ReceiverArray` per scenario (or None);
        ``width`` labels the span with the batch width."""
        plan, nsteps = self._lts_dispatch(lts, t_end)
        full_state = snapshots is not None or callback is not None
        if plan is not None and full_state:
            raise ValueError(
                "snapshots/callback need the full state every step; "
                "run with lts=0 (they are unsupported under LTS)"
            )
        dt = self.dt
        if health_interval:
            validate_cfl(dt, self.mesh.elem_h, self.vp)
        if telemetry.enabled():
            telemetry.gauge(
                "elastic.cfl_margin",
                stable_timestep(self.mesh.elem_h, self.vp, safety=1.0) / dt,
            )
        data = None if recs is None else [
            ra.allocate(3, nsteps) for ra in recs
        ]
        # (batch shape, columns per dof, index broadcasting a diagonal
        # over the batch axis, kernel); u[cols[b]] is scenario b's state
        if batch is None:
            layout, cols = ((), 1, (...,), "matvec"), [(...,)]
        else:
            layout = ((batch,), batch, (..., None), "matmat")
            cols = [(..., b) for b in range(batch)]
        common = dict(
            layout=layout, force=self._forcing(forces, self.nnode, batch),
            recs=recs, data=data, cols=cols, record=record,
            checkpoint=checkpoint, resume=resume, faults=faults,
            health_interval=health_interval,
        )
        with telemetry.span(span if plan is None else span + "_lts") as _run:
            _run.add("nsteps", nsteps)
            _run.add("nnode", self.nnode)
            if width is not None:
                _run.add("batch", width)
            if plan is None:
                self._march_global(
                    nsteps, callback=callback, snapshots=snapshots, **common
                )
            else:
                self._march_lts(nsteps, plan, _run, **common)
        if recs is None:
            return None
        return [
            Seismograms(data=d, dt=dt, kind=record, positions=ra.positions)
            for d, ra in zip(data, recs)
        ]

    def _march_global(
        self, nsteps, *, layout, force, recs, data, cols, record, callback,
        snapshots, checkpoint, resume, faults, health_interval,
    ) -> None:
        """Global-dt leapfrog (eq. 2.4) plus the hanging-node projection
        (eq. 2.5), one step per iteration, in place throughout."""
        dt = self.dt
        dt2 = dt * dt
        hd = 0.5 * dt
        nnode = self.nnode
        bshape, ncol, ex, kern = layout
        w = 3 * ncol  # CSR columns per node row
        dofs = (-1, *bshape)  # one CSR row per dof
        m = self.m[:, None]
        # hoisted loop invariants: 2M for the leading term and the full
        # u^{k-1} coefficient (mass, Rayleigh alpha, boundary damping)
        m2 = (2.0 * m)[ex]
        prev_coef = ((hd * self.m_alpha[:, None] - m) + hd * self.C_diag)[ex]
        inv_A_bar = self._inv_A_bar[ex]
        kb_diag = None if self.Kb is None else self.Kb_diag[ex]
        # preallocated state and scratch buffers; the loop below is
        # in-place throughout — no per-step O(nnode) heap allocations
        shape = (nnode, 3, *bshape)
        u_prev, u, u_next, kb_u_prev = (np.zeros(shape) for _ in range(4))
        r, Ku, tmp, kb_u = (np.empty(shape) for _ in range(4))
        nbar = self.A_bar.shape[0]
        r_bar = np.empty((nbar, 3, *bshape))
        # (rows, 3B) views for the CSR products
        r2, r_bar2 = r.reshape(nnode, w), r_bar.reshape(nbar, w)
        K_apply = getattr(self.K, kern)
        Kb_apply = None if self.Kb is None else getattr(self.Kb, kern)
        k0 = 0
        if resume and checkpoint is not None:
            state = {"u_prev": u_prev, "u": u, "kb_u_prev": kb_u_prev}
            k0 = self._resume(checkpoint, state, data)

        # telemetry: one is-None gate per step region when disabled
        # (literal span names, no kwargs — no hot-loop allocations)
        tel_on = telemetry.enabled()
        flops_K = self.K.flops_per_matmat(ncol)
        flops_Kb = 0 if self.Kb is None else self.Kb.flops_per_matmat(ncol)
        flops_up = 12 * nnode * ncol
        for k in range(k0, nsteps):
            t = k * dt
            with telemetry.span("stiffness") as _s:
                K_apply(u, out=Ku)
                _s.add("flops", flops_K)
                _s.add("elements", self.K.nelem)
            self.flops.add("stiffness", flops_K)
            np.multiply(m2, u, out=r)
            np.multiply(Ku, dt2, out=Ku)
            np.subtract(r, Ku, out=r)
            if self._has_kab:
                # r += (-dt^2 K_AB) u, prescaled at setup
                spmv_acc(self._K_AB_mdt2, u.reshape(dofs), r.reshape(dofs))
            if Kb_apply is not None:
                with telemetry.span("damping") as _s:
                    Kb_apply(u, out=kb_u)
                    _s.add("flops", flops_Kb)
                self.flops.add("stiffness", flops_Kb)
                self._rayleigh(r, tmp, kb_u, kb_diag, u, kb_u_prev, hd)
                kb_u_prev, kb_u = kb_u, kb_u_prev
            np.multiply(prev_coef, u_prev, out=tmp)
            np.add(r, tmp, out=r)
            b = force(t)
            if b is not None:
                np.multiply(b, dt2, out=tmp)
                np.add(r, tmp, out=r)
            # hanging-node projection keeps the update explicit (2.5)
            with telemetry.span("update") as _s:
                spmv_into(self.BT, r2, r_bar2)
                np.multiply(r_bar, inv_A_bar, out=r_bar)
                spmv_into(self.B, r_bar2, u_next.reshape(nnode, w))
                _s.add("flops", flops_up)
            self.flops.add("update", flops_up)
            if tel_on:
                # displacement "energy" proxy — drift shows up as
                # unbounded growth of this per-step series
                telemetry.sample(
                    "elastic.u2", float(np.vdot(u_next, u_next)), step=k
                )
                telemetry.sample_alloc(step=k)

            if data is not None:
                for ra, d, c in zip(recs, data, cols):
                    if record == "velocity":
                        d[:, :, k] = (
                            u_next[c][ra.nodes] - u_prev[c][ra.nodes]
                        ) / (2.0 * dt)
                    else:
                        d[:, :, k] = u[c][ra.nodes]
            if snapshots is not None:
                snapshots.maybe_record(k, t, u)
            if callback is not None:
                callback(k, t, u)
            u_prev, u, u_next = u, u_next, u_prev
            # u is now x^{k+1}, u_prev is x^k — the restart pair
            if faults is not None:
                faults.poison_state(0, k, u)
            if health_interval and should_check(k, nsteps, health_interval):
                check_finite(u, step=k, field="u")
            if checkpoint is not None and checkpoint.due(k):
                state = {"u_prev": u_prev, "u": u}
                if self.Kb is not None:
                    state["kb_u_prev"] = kb_u_prev
                self._save(checkpoint, k, state, data, {"next_k": k + 1})

    def _march_lts(
        self, nsteps, plan: LTSPlan, _run, *, layout, force, recs, data,
        cols, record, checkpoint, resume, faults, health_interval,
    ) -> None:
        """Clustered-leapfrog march (schedule contract in
        :mod:`repro.solver.lts`): one loop over fine indices, each
        cluster fires when its rate divides the index, coarsest first,
        reading time-interpolated values at its one-coarser halo.
        Checkpoints and fault/health probes happen only at sync
        boundaries — multiples of the coarsest rate, where every node
        holds the state at the same time.  Receivers owned by a coarse
        cluster are sampled at its cadence and gap-filled afterwards."""
        dt = self.dt
        nnode = self.nnode
        bshape, ncol, ex, kern = layout
        w = 3 * ncol
        dofs = (-1, *bshape)
        levels = self._lts_exec(plan)
        r_min, r_max = plan.min_rate, plan.max_rate
        shape = (nnode, 3, *bshape)
        u_prev, u, Ku, Kbu = (np.zeros(shape) for _ in range(4))
        # per-level runtime state: bound kernels and flop counts,
        # broadcast diagonals, own-node sized buffers with their (rows,
        # 3B) CSR views (the loop below is allocation-free), firing count
        rt = []
        for lev in levels:
            own_shape = (len(lev["own"]), 3, *bshape)
            has_kb = lev["Kb"] is not None
            rt.append(
                {
                    "K": getattr(lev["K"], kern),
                    "Kb": getattr(lev["Kb"], kern) if has_kb else None,
                    "flops_K": lev["K"].flops_per_matmat(ncol),
                    "flops_Kb": (
                        lev["Kb"].flops_per_matmat(ncol) if has_kb else 0
                    ),
                    "flops_up": 12 * len(lev["own"]) * ncol,
                    "m2": lev["m2"][:, None][ex],
                    "prev_coef": lev["prev_coef"][ex],
                    "kb_diag": lev["kb_diag"][ex] if has_kb else None,
                    "inv_A_bar": lev["inv_A_bar"][ex],
                    "rbar": np.empty((lev["B"].shape[1], 3, *bshape)),
                    "kb_prev": np.zeros(own_shape) if has_kb else None,
                    "kb_new": np.empty(own_shape) if has_kb else None,
                    "sv": np.empty((len(lev["interp"]), 3, *bshape)),
                    "iv": np.empty((len(lev["interp"]), 3, *bshape)),
                    "fired": 0,
                }
            )
            st = rt[-1]
            for name in ("r", "tmp", "u_own", "up_own", "unew"):
                st[name] = np.empty(own_shape)
            for name in ("r", "rbar", "unew"):
                st[name + "2"] = st[name].reshape(len(st[name]), w)
        slots = [self._lts_receiver_slots(levels, ra) for ra in recs or ()]

        def restart_state():  # the kb_prev buffers swap every firing
            state = {"u_prev": u_prev, "u": u}
            for i, st in enumerate(rt):
                if st["kb_prev"] is not None:
                    state[f"kb_prev_{i}"] = st["kb_prev"]
            return state

        k0 = 0
        if resume and checkpoint is not None:
            k0 = self._resume(checkpoint, restart_state(), data)
            if k0 % r_max:
                raise ValueError(
                    f"LTS resume index {k0} is not a sync boundary "
                    f"(coarsest rate {r_max})"
                )
        last_sync_saved = k0
        if telemetry.enabled():
            telemetry.gauge(
                "elastic.lts_theoretical_speedup", plan.theoretical_speedup()
            )
        _run.add("levels", len(levels))
        _run.add("max_rate", r_max)
        for j in range(k0, nsteps, r_min):
            t = j * dt
            b = force(t)
            for li, (lev, st) in enumerate(zip(levels, rt)):
                rate = lev["rate"]
                if j % rate:
                    continue
                st["fired"] += 1
                interp = lev["interp"]
                ni = len(interp)
                if ni:
                    # overwrite the one-coarser halo with its time-
                    # interpolated value for the matvecs, restore
                    # right after (the coarse pair brackets j*dt;
                    # theta is 0 or 1/2 — see lts.interp_theta)
                    sv, iv = st["sv"], st["iv"]
                    np.take(u, interp, axis=0, out=sv)
                    np.take(u_prev, interp, axis=0, out=iv)
                    if j % (2 * rate):  # theta = 1/2
                        np.add(iv, sv, out=iv)
                        np.multiply(iv, 0.5, out=iv)
                    u[interp] = iv
                with telemetry.span("stiffness") as _s:
                    st["K"](u, out=Ku)
                    _s.add("flops", st["flops_K"])
                    _s.add("elements", lev["K"].nelem)
                self.flops.add("stiffness", st["flops_K"])
                if st["Kb"] is not None:
                    with telemetry.span("damping") as _s:
                        st["Kb"](u, out=Kbu)
                        _s.add("flops", st["flops_Kb"])
                    self.flops.add("stiffness", st["flops_Kb"])
                own = lev["own"]
                r, tmp = st["r"], st["tmp"]
                # r = 2M u - dt_c^2 (K + K_AB) u~  (own rows)
                np.take(Ku, own, axis=0, out=r)
                np.multiply(r, -lev["dtc2"], out=r)
                np.take(u, own, axis=0, out=st["u_own"])
                np.multiply(st["m2"], st["u_own"], out=tmp)
                np.add(r, tmp, out=r)
                if lev["kab"] is not None:
                    spmv_acc(lev["kab"], u.reshape(dofs), r.reshape(dofs))
                if ni:
                    u[interp] = sv
                if st["Kb"] is not None:
                    np.take(Kbu, own, axis=0, out=st["kb_new"])
                    self._rayleigh(
                        r, tmp, st["kb_new"], st["kb_diag"], st["u_own"],
                        st["kb_prev"], lev["hdc"],
                    )
                    st["kb_prev"], st["kb_new"] = st["kb_new"], st["kb_prev"]
                np.take(u_prev, own, axis=0, out=st["up_own"])
                np.multiply(st["prev_coef"], st["up_own"], out=tmp)
                np.add(r, tmp, out=r)
                if b is not None:
                    np.take(b, own, axis=0, out=tmp)
                    np.multiply(tmp, lev["dtc2"], out=tmp)
                    np.add(r, tmp, out=r)
                # per-level hanging-node projection (block of 2.5)
                with telemetry.span("update") as _s:
                    spmv_into(lev["BT"], st["r2"], st["rbar2"])
                    np.multiply(st["rbar"], st["inv_A_bar"], out=st["rbar"])
                    spmv_into(lev["B"], st["rbar2"], st["unew2"])
                    _s.add("flops", st["flops_up"])
                self.flops.add("update", st["flops_up"])
                # receivers: sampled at the cluster's own cadence
                # (column j); gaps are interpolated after the loop
                for d, sl, c in zip(data or (), slots, cols):
                    ridx, rpos = sl[li]
                    if not len(ridx):
                        continue
                    if record == "velocity":
                        d[ridx, :, j] = (
                            st["unew"][c][rpos] - st["up_own"][c][rpos]
                        ) / (2.0 * lev["dtc"])
                    else:
                        d[ridx, :, j] = st["u_own"][c][rpos]
                u_prev[own] = st["u_own"]
                u[own] = st["unew"]
            s = j + r_min
            if s % r_max == 0:  # sync: all nodes hold u(s * dt)
                if faults is not None:
                    faults.poison_state(0, s - 1, u)
                if health_interval and should_check(
                    s - 1, nsteps, health_interval
                ):
                    check_finite(u, step=s - 1, field="u")
                if (
                    checkpoint is not None
                    and checkpoint.interval > 0
                    and s // checkpoint.interval
                    > last_sync_saved // checkpoint.interval
                ):
                    self._save(
                        checkpoint, s - 1, restart_state(), data,
                        {"next_k": s, "lts_rate": r_max},
                    )
                    last_sync_saved = s
        flops = 0
        for lev, st in zip(levels, rt):
            per = st["flops_K"] + st["flops_Kb"] + st["flops_up"]
            flops += st["fired"] * per
            _run.add(f"fired_r{lev['rate']}", st["fired"])
        _run.add("flops", flops)
        for d, sl in zip(data or (), slots):
            self._lts_fill_receiver_gaps(d, levels, sl, nsteps)

    def run(
        self,
        forces: Callable[[float, np.ndarray], np.ndarray] | object,
        t_end: float,
        *,
        receivers: ReceiverArray | None = None,
        snapshots: SnapshotRecorder | None = None,
        record: str = "velocity",
        callback: Callable[[int, float, np.ndarray], None] | None = None,
        checkpoint: CheckpointManager | None = None,
        resume: bool = False,
        faults=None,
        health_interval: int = DEFAULT_HEALTH_INTERVAL,
        lts: int | bool | LTSPlan | None = None,
    ) -> Seismograms | None:
        """March the wave equation from rest to ``t_end``.

        ``forces`` is either a callable ``forces(t, out) -> (nnode, 3)``
        or a :class:`repro.sources.fault.SourceCollection`; snapshot
        recorders and ``callback(k, t, u)`` see the ``(nnode, 3)`` state.

        Resilience: a :class:`~repro.solver.checkpoint.CheckpointManager`
        durably snapshots the leapfrog restart pair (plus the cached
        Rayleigh matvec and the recorded seismogram prefix) every
        ``checkpoint.interval`` steps; ``resume=True`` restarts from the
        latest valid snapshot instead of rest, reproducing the
        uninterrupted run bit for bit (the update depends only on the
        two previous states and the deterministic forcing).  Snapshot
        recorders only see steps after the resume point.
        ``health_interval`` arms the NaN/Inf sentinel (every that many
        steps plus the final one) and re-validates the CFL bound up
        front; 0 disables both.  ``faults`` takes a
        :class:`~repro.resilience.FaultPlan` (state poisoning only in
        serial runs).

        ``lts`` overrides the solver's clustered local-time-stepping
        setting for this run (None = use the ``lts=`` knob from the
        constructor).  A trivial plan — every element in the rate-1
        cluster — falls back to the global loop, so ``lts`` enabled on
        an unclustered model stays bitwise-identical to ``lts`` off.
        Under LTS, checkpoints and health probes fall on sync
        boundaries; snapshot recorders and per-step callbacks need the
        full state at every step and are not supported.
        """
        seis = self._march(
            forces, t_end, None,
            None if receivers is None else [receivers], "elastic.run",
            record=record, callback=callback, snapshots=snapshots,
            checkpoint=checkpoint, resume=resume, faults=faults,
            health_interval=health_interval, lts=lts,
        )
        return None if seis is None else seis[0]

    def run_batch(
        self,
        forces: Sequence[Callable[[float, np.ndarray], np.ndarray] | object],
        t_end: float,
        *,
        receivers: ReceiverArray | Sequence[ReceiverArray] | None = None,
        record: str = "velocity",
        callback: Callable[[int, float, np.ndarray], None] | None = None,
        lts: int | bool | LTSPlan | None = None,
        faults=None,
        health_interval: int = DEFAULT_HEALTH_INTERVAL,
    ) -> list[Seismograms] | None:
        """March ``B = len(forces)`` scenarios at once from rest.

        The same global and LTS loops as :meth:`run`, over
        ``(nnode, 3, B)`` state blocks: the stiffness runs as a single
        level-3 :meth:`ElasticOperator.matmat`, the Stacey ``c1``
        coupling and the hanging-node projection run as multi-vector
        CSR products over all ``3 B`` columns, and the diagonal
        updates broadcast — so the per-step Python dispatch and every
        indirect-addressing pass are paid once per step instead of
        once per scenario.  Scenario ``b``'s trajectory is
        bit-identical to ``run(forces[b], t_end)`` (identical
        summation orders throughout; a scenario idle at a step
        contributes a zero forcing column, equal under ``==``).  A
        single scenario marches the ``(nnode, 3)`` state of :meth:`run`
        itself.

        ``receivers`` is a single shared :class:`ReceiverArray` or one
        per scenario; ``callback(k, t, u)`` sees the full
        ``(nnode, 3, B)`` block.  Returns one :class:`Seismograms` per
        scenario (None without receivers).

        ``faults``/``health_interval`` mirror :meth:`run` on both
        schedules (under LTS at sync boundaries): the fused state block
        is checked for non-finite values, raising
        :class:`~repro.resilience.health.NumericalHealthError` — one
        poisoned column fails the whole fused loop, which is exactly
        the signal the service scheduler's bisection isolates.
        """
        forces = list(forces)
        Bn = len(forces)
        if receivers is None or isinstance(receivers, ReceiverArray):
            recs = None if receivers is None else [receivers] * Bn
        else:
            recs = list(receivers)
            if len(recs) != Bn:
                raise ValueError("need one receiver array per scenario")
        batch = Bn
        if Bn == 1:
            batch, forces = None, forces[0]
            if callback is not None:
                # the block view keeps the batched callback contract
                def callback(k, t, u, _cb=callback):
                    _cb(k, t, u[..., None])
        return self._march(
            forces, t_end, batch, recs, "elastic.run_batch", width=Bn,
            record=record, callback=callback, faults=faults,
            health_interval=health_interval, lts=lts,
        )
