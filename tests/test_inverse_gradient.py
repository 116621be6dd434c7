"""Adjoint-gradient exactness and GN Hessian properties.

These are the tests the whole inversion rests on: the discrete adjoint
must reproduce finite differences of the objective to near roundoff,
for every parameter class (material, u0, t0, T), with every term on
(absorbing-boundary mu-coupling, fault mu-coupling, TV, barrier).
"""

import numpy as np
import pytest

from repro.inverse import (
    FaultLineSource2D,
    MaterialGrid,
    ScalarWaveInverseProblem,
    SourceInverseProblem,
    TotalVariation,
)
from repro.inverse.fault_source import SourceParams
from repro.solver import RegularGridScalarWave


@pytest.fixture(scope="module")
def setup2d():
    nx, nz = 16, 8
    h = 100.0
    solver = RegularGridScalarWave((nx, nz), h, rho=1000.0)
    grid = MaterialGrid((4, 2), (nx * h, nz * h))

    def mu_true_fn(pts):
        return 2.0e9 + 1.5e9 * (pts[:, 1] > 400.0)

    m_true = grid.sample(mu_true_fn)
    fault = FaultLineSource2D(solver, ix=nx // 2, jz=range(2, 6))
    params = fault.hypocentral_params(
        hypo_j=4, rupture_velocity=2000.0, u0=1.0, t0=0.3
    )
    mu_e = grid.to_elements(solver) @ m_true
    dt = solver.stable_dt(np.full(solver.nelem, m_true.max()))
    nsteps = 120
    u = solver.march(
        mu_e, fault.forcing(mu_e, params, dt), nsteps, dt, store=True
    )
    rec = solver.surface_nodes()[::2]
    data = u[:, rec]
    return solver, grid, fault, params, rec, data, dt, nsteps, m_true


def fd_check(objective, x0, g, indices, eps, rtol):
    for i in indices:
        xp = x0.copy()
        xp[i] += eps
        xm = x0.copy()
        xm[i] -= eps
        fd = (objective(xp) - objective(xm)) / (2 * eps)
        assert abs(fd - g[i]) <= rtol * max(abs(fd), 1e-30), (
            f"component {i}: adjoint {g[i]:.8e} vs FD {fd:.8e}"
        )


class TestMaterialGradient:
    def test_gradient_matches_fd_plain(self, setup2d):
        solver, grid, fault, params, rec, data, dt, nsteps, m_true = setup2d
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
        )
        m0 = np.full(grid.n, 2.5e9)
        g, J, _ = prob.gradient(m0)
        fd_check(
            lambda m: prob.objective(m)[0],
            m0,
            g,
            [0, 3, 7, grid.n - 1],
            eps=2.5e5,
            rtol=1e-5,
        )

    def test_gradient_matches_fd_with_tv_and_barrier(self, setup2d):
        solver, grid, fault, params, rec, data, dt, nsteps, m_true = setup2d
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
            reg=TotalVariation(grid, beta=1e-12, eps=1e6),
            barrier_gamma=1e-4, mu_min=1e8,
        )
        rng = np.random.default_rng(0)
        m0 = 2.5e9 + 2e8 * rng.standard_normal(grid.n)
        g, J, _ = prob.gradient(m0)
        fd_check(
            lambda m: prob.objective(m)[0],
            m0,
            g,
            [1, 5, 10],
            eps=2.5e5,
            rtol=1e-4,
        )

    def test_zero_residual_zero_data_gradient(self, setup2d):
        """At the true model the data gradient vanishes."""
        solver, grid, fault, params, rec, data, dt, nsteps, m_true = setup2d
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
        )
        g, J, _ = prob.gradient(m_true)
        assert J < 1e-20
        assert np.abs(g).max() < 1e-15

    def test_nonpositive_modulus_rejected(self, setup2d):
        solver, grid, fault, params, rec, data, dt, nsteps, _ = setup2d
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
        )
        with pytest.raises(FloatingPointError):
            prob.forward(np.full(grid.n, -1.0))


class TestMaterialGradient3D:
    def test_gradient_matches_fd_3d_point_source(self):
        """3D scalar problem (all 27 node offsets of the accumulation
        kernel, absorbing faces on five sides) with a fixed point
        source through ``extra_forcing``."""
        shape, h = (5, 4, 4), 100.0
        solver = RegularGridScalarWave(shape, h, rho=1000.0)
        grid = MaterialGrid((2, 2, 2), tuple(n * h for n in shape))

        def mu_true_fn(pts):
            return 2.0e9 + 1.0e9 * (pts[:, 2] > 200.0)

        m_true = grid.sample(mu_true_fn)
        mu_e = grid.to_elements(solver) @ m_true
        dt = solver.stable_dt(np.full(solver.nelem, m_true.max()))
        nsteps = 60
        src = solver.node_index((2, 2, 2))

        def extra(k):
            f = np.zeros(solver.nnode)
            t = k * dt - 0.1
            f[src] = dt**2 * 1e6 * np.exp(-((t / 0.03) ** 2))
            return f

        rec = solver.surface_nodes()[::2]
        data = solver.march(mu_e, extra, nsteps, dt, store=True)[:, rec]
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, extra_forcing=extra
        )
        m0 = np.full(grid.n, 2.4e9)
        g, J, _ = prob.gradient(m0)
        assert J > 0
        fd_check(
            lambda m: prob.objective(m)[0],
            m0,
            g,
            range(grid.n),
            eps=2.5e5,
            rtol=1e-5,
        )


class TestGaussNewtonHessian:
    def test_symmetric_and_psd(self, setup2d):
        solver, grid, fault, params, rec, data, dt, nsteps, _ = setup2d
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
        )
        m0 = np.full(grid.n, 2.2e9)
        _, _, state = prob.gradient(m0)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(grid.n) * 1e8
        w = rng.standard_normal(grid.n) * 1e8
        Hv = prob.gn_hessvec(v, state)
        Hw = prob.gn_hessvec(w, state)
        np.testing.assert_allclose(w @ Hv, v @ Hw, rtol=1e-10)
        assert v @ Hv >= 0
        assert w @ Hw >= 0

    def test_gn_matches_fd_hessian_at_exact_fit(self, setup2d):
        """At zero residual the GN Hessian IS the full Hessian, so
        ``H v ~ (g(m + e v) - g(m - e v)) / 2e``."""
        solver, grid, fault, params, rec, data, dt, nsteps, m_true = setup2d
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
        )
        _, _, state = prob.gradient(m_true)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(grid.n)
        v /= np.linalg.norm(v)
        Hv = prob.gn_hessvec(v, state)
        eps = 2e4
        gp, _, _ = prob.gradient(m_true + eps * v)
        gm, _, _ = prob.gradient(m_true - eps * v)
        fd = (gp - gm) / (2 * eps)
        np.testing.assert_allclose(Hv, fd, rtol=2e-3, atol=1e-18)

    def test_linearity(self, setup2d):
        solver, grid, fault, params, rec, data, dt, nsteps, _ = setup2d
        prob = ScalarWaveInverseProblem(
            solver, grid, rec, data, dt, nsteps, fault=fault,
            source_params=params,
        )
        _, _, state = prob.gradient(np.full(grid.n, 2.2e9))
        rng = np.random.default_rng(3)
        v, w = rng.standard_normal((2, grid.n))
        Hvw = prob.gn_hessvec(2.0 * v - 3.0 * w, state)
        np.testing.assert_allclose(
            Hvw,
            2.0 * prob.gn_hessvec(v, state) - 3.0 * prob.gn_hessvec(w, state),
            rtol=1e-8,
            atol=1e-20,
        )


class TestSourceGradient:
    def test_gradient_matches_fd_all_parameter_classes(self, setup2d):
        solver, grid, fault, params, rec, data, dt, nsteps, m_true = setup2d
        mu_e = grid.to_elements(solver) @ m_true
        sp = SourceInverseProblem(
            solver, fault, mu_e, rec, data, dt, nsteps,
            beta_u0=1e-4, beta_t0=1e-4, beta_T=1e-4,
        )
        p0 = SourceParams(
            np.full(fault.ns, 0.9),
            np.full(fault.ns, 0.35),
            params.T + 0.04,
        )
        x0 = p0.pack()
        g, J, _ = sp.gradient(x0)
        # indices across u0 (0..3), t0 (4..7), T (8..11)
        fd_check(
            lambda x: sp.objective(x)[0],
            x0,
            g,
            [0, 2, 5, 7, 9, 11],
            eps=1e-6,
            rtol=1e-5,
        )

    def test_source_gn_symmetric(self, setup2d):
        solver, grid, fault, params, rec, data, dt, nsteps, m_true = setup2d
        mu_e = grid.to_elements(solver) @ m_true
        sp = SourceInverseProblem(solver, fault, mu_e, rec, data, dt, nsteps)
        x0 = SourceParams(
            np.full(fault.ns, 0.9), np.full(fault.ns, 0.35), params.T
        ).pack()
        _, _, state = sp.gradient(x0)
        rng = np.random.default_rng(4)
        v, w = rng.standard_normal((2, 3 * fault.ns))
        np.testing.assert_allclose(
            w @ sp.gn_hessvec(v, state),
            v @ sp.gn_hessvec(w, state),
            rtol=1e-9,
        )

    def test_exact_fit_zero_gradient(self, setup2d):
        solver, grid, fault, params, rec, data, dt, nsteps, m_true = setup2d
        mu_e = grid.to_elements(solver) @ m_true
        sp = SourceInverseProblem(solver, fault, mu_e, rec, data, dt, nsteps)
        g, J, _ = sp.gradient(params.pack())
        assert J < 1e-20
        assert np.abs(g).max() < 1e-14
