"""Attenuation inversion (the paper's third unknown class).

The summary names "determining source, elastic, and **attenuation**
parameters for complex 3D basins" as the target inverse problem.  This
module inverts a mass-proportional Rayleigh damping field ``alpha(x)``
(the solver's anelasticity model at the discrete level) with the
elastic structure fixed, from receiver records — the same
discretize-then-optimize recipe as the other parameter classes.

The forward model is linear in ``alpha`` through the damping matrix
(``dC/dalpha_e`` is a constant lumping stencil), so the accumulation

    ``g_e = (dt/2) sum_k lam^{k+1,T} (dC/dalpha_e) (u^{k+1} - u^{k-1})``

is exact, and the Gauss-Newton product costs the usual one incremental
forward plus one adjoint solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.inverse.parametrization import MaterialGrid
from repro.solver.scalarwave import RegularGridScalarWave


@dataclass
class AttenuationForwardState:
    m: np.ndarray
    alpha_e: np.ndarray
    u: np.ndarray
    residual: np.ndarray


class AttenuationInverseProblem:
    """Invert the damping field ``alpha`` with ``mu`` known and fixed.

    Parameters mirror :class:`ScalarWaveInverseProblem`; ``m`` holds
    nodal ``alpha`` values on the material grid (1/s units).
    """

    def __init__(
        self,
        solver: RegularGridScalarWave,
        grid: MaterialGrid,
        mu_e: np.ndarray,
        receivers: np.ndarray,
        data: np.ndarray,
        dt: float,
        nsteps: int,
        forcing: Callable[[int], np.ndarray],
        *,
        barrier_gamma: float = 0.0,
        alpha_min: float = -1e-12,
    ):
        self.solver = solver
        self.grid = grid
        self.P = grid.to_elements(solver)
        self.mu_e = np.asarray(mu_e, dtype=float)
        self.receivers = np.asarray(receivers, dtype=np.int64)
        self.data = np.asarray(data, dtype=float)
        self.dt = float(dt)
        self.nsteps = int(nsteps)
        self.forcing = forcing
        self.barrier_gamma = float(barrier_gamma)
        self.mu_min = float(alpha_min)  # generic name for the GN driver
        self.n_wave_solves = 0

    def alpha_elements(self, m: np.ndarray) -> np.ndarray:
        return self.P @ m

    # ------------------------------------------------------------ forward

    def forward(self, m: np.ndarray) -> AttenuationForwardState:
        alpha_e = self.alpha_elements(m)
        if np.any(alpha_e < 0):
            raise FloatingPointError("negative attenuation")
        u = self.solver.march(
            self.mu_e, self.forcing, self.nsteps, self.dt, store=True,
            alpha=alpha_e,
        )
        self.n_wave_solves += 1
        return AttenuationForwardState(
            m=np.asarray(m, float).copy(),
            alpha_e=alpha_e,
            u=u,
            residual=u[:, self.receivers] - self.data,
        )

    def objective(self, m, state: AttenuationForwardState | None = None):
        if state is None:
            state = self.forward(m)
        parts = {"data": 0.5 * self.dt * float(np.sum(state.residual**2))}
        if self.barrier_gamma > 0:
            gap = m - self.mu_min
            if np.any(gap <= 0):
                return np.inf, parts, state
            parts["barrier"] = -self.barrier_gamma * float(np.sum(np.log(gap)))
        return sum(parts.values()), parts, state

    # ------------------------------------------------------------ adjoint

    def _adjoint(self, alpha_e: np.ndarray, rhs_series: np.ndarray):
        """Reversed adjoint march; returns the view ``lam^2 .. lam^N``
        of its history (see ``ScalarWaveInverseProblem._adjoint_states``)."""
        N = self.nsteps
        fbuf = np.zeros(self.solver.nnode)  # only receiver entries change

        def forcing(mrev):
            j = N + 1 - mrev
            fbuf[self.receivers] = -self.dt * rhs_series[j]
            return fbuf

        x = self.solver.march(
            self.mu_e, forcing, N, self.dt, store=True, alpha=alpha_e
        )
        self.n_wave_solves += 1
        return x[2 : N + 1][::-1]

    def _accumulate(self, u: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """``(dt/2) sum_k lam^{k+1,T} (dC/dalpha_e) (u^{k+1} - u^{k-1})``
        for ``lam`` as returned by :meth:`_adjoint`; the bilinear sum
        splits over the difference, so no differenced history is
        formed."""
        N = self.nsteps
        s = self.solver
        g = s.element_bilinear_sum(s.dC_dalpha, u[2 : N + 1], lam)
        g -= s.element_bilinear_sum(s.dC_dalpha, u[: N - 1], lam)
        return self.P.T @ (0.5 * self.dt * g)

    def gradient(self, m, state: AttenuationForwardState | None = None):
        if state is None:
            state = self.forward(m)
        J, _, _ = self.objective(m, state)
        lam = self._adjoint(state.alpha_e, state.residual)
        g = self._accumulate(state.u, lam)
        if self.barrier_gamma > 0:
            g -= self.barrier_gamma / (m - self.mu_min)
        return g, J, state

    def gn_hessvec(self, v: np.ndarray, state: AttenuationForwardState):
        dt = self.dt
        dalpha_e = self.P @ np.asarray(v, dtype=float)
        C_delta = self.solver.volume_damping_diag(dalpha_e)
        u = state.u

        def forcing(k):
            return -0.5 * dt * C_delta * (u[k + 1] - u[k - 1])

        du = self.solver.march(
            self.mu_e, forcing, self.nsteps, dt, store=True,
            alpha=state.alpha_e,
        )
        self.n_wave_solves += 1
        lam_t = self._adjoint(state.alpha_e, du[:, self.receivers])
        Hv = self._accumulate(u, lam_t)
        if self.barrier_gamma > 0:
            Hv += self.barrier_gamma * v / (state.m - self.mu_min) ** 2
        return Hv
