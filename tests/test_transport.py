"""Process transport == simulated transport, message for message.

The tentpole guarantee of the shared-memory transport: running the
distributed solver over real worker processes produces the *same bits*
as the in-process simulation — trajectories compare with
``np.array_equal`` and the per-rank traffic statistics are identical —
so every correctness test of the simulated path covers the process
path, and every measured byte/message count means the same thing on
both.
"""

import sys

import numpy as np
import pytest

from repro.materials import HomogeneousMaterial
from repro.mesh import rcb_partition, uniform_hex_mesh
from repro.parallel import (
    DistributedWaveSolver,
    ProcWorld,
    SimWorld,
    binomial_rounds,
    measure_transport,
)
from repro.parallel.transport import attach_shared_array, create_shared_array
from repro.solver.checkpoint import checkpoint_schedule

MAT = HomogeneousMaterial(vs=1000.0, vp=1800.0, rho=2000.0)


class PointForce:
    """Picklable point force (worker processes unpickle it by value)."""

    def __init__(self, node: int, nnode: int):
        self.node = node
        self.nnode = nnode

    def __call__(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        # (t) for the distributed solver, (t, out) for the serial one
        b = np.zeros((self.nnode, 3)) if out is None else out
        b.fill(0.0)
        b[self.node, 2] = 1e9 * np.exp(-(((t - 0.02) / 0.008) ** 2))
        return b


def _run_on(world, mesh, parts, force, nsteps):
    solver = DistributedWaveSolver(mesh, MAT, parts, world)
    # the half-step offset keeps ceil(t_end / dt) at exactly nsteps
    # under float roundoff
    u = solver.run(force, (nsteps - 0.5) * solver.dt)
    return u, [s.as_tuple() for s in world.stats]


@pytest.mark.parametrize("nranks", [2, 4])
def test_transports_bit_identical(nranks):
    mesh = uniform_hex_mesh(4)
    parts = rcb_partition(mesh.elem_centers, nranks)
    force = PointForce(mesh.nnode // 2, mesh.nnode)
    sim = SimWorld(nranks)
    u_sim, stats_sim = _run_on(sim, mesh, parts, force, 25)
    with ProcWorld(nranks) as proc:
        u_proc, stats_proc = _run_on(proc, mesh, parts, force, 25)
    assert np.abs(u_sim).max() > 0  # the wave actually propagated
    assert np.array_equal(u_sim, u_proc)
    assert stats_sim == stats_proc


def test_proc_solver_matches_serial():
    from repro.octree import build_adaptive_octree
    from repro.mesh import extract_mesh
    from repro.solver import ElasticWaveSolver

    n = 8
    tree = build_adaptive_octree(
        lambda c, s: np.full(len(c), 1.0 / n), max_level=4
    )
    mesh = extract_mesh(tree, L=1000.0)
    force = PointForce(mesh.nnode // 2, mesh.nnode)
    serial = ElasticWaveSolver(mesh, tree, MAT, stacey_c1=False)
    nsteps = 20
    out = {}

    def cb(k, t, u):
        if k == nsteps:
            out["u"] = u.copy()

    # half-step offsets keep ceil(t_end / dt) unambiguous under float
    # roundoff: exactly nsteps + 1 serial steps, nsteps distributed
    serial.run(force, (nsteps + 0.5) * serial.dt, callback=cb)

    parts = rcb_partition(mesh.elem_centers, 4)
    with ProcWorld(4) as proc:
        solver = DistributedWaveSolver(mesh, MAT, parts, proc, dt=serial.dt)
        u_proc = solver.run(force, (nsteps - 0.5) * serial.dt)
    ref = np.abs(out["u"]).max()
    assert ref > 0
    np.testing.assert_allclose(u_proc, out["u"], rtol=1e-9, atol=1e-12 * ref)


def test_allreduce_equivalent_across_transports():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    sim = SimWorld(5)
    got_sim = sim.allreduce(values)
    with ProcWorld(5) as proc:
        got_proc = proc.allreduce(values)
        stats_proc = [s.as_tuple() for s in proc.stats]
    assert got_sim == got_proc == 15.0
    stats_sim = [s.as_tuple() for s in sim.stats]
    assert stats_sim == stats_proc
    # binomial tree: every rank is a child exactly once -> at most
    # log2ceil(P) + 1 sends per rank, not the P of a gather-to-root
    for msgs, _, _ in stats_sim:
        assert msgs <= int(np.ceil(np.log2(5))) + 1


def test_binomial_rounds_cover_every_rank_once():
    for p in (1, 2, 3, 5, 8, 13):
        children = [c for rnd in binomial_rounds(p) for c, _ in rnd]
        assert sorted(children) == list(range(1, p))


def _boom_program(comm, payload):
    # module-level: rank programs cross the worker pipe by pickle
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    return comm.rank


def test_worker_error_propagates():
    with ProcWorld(2) as world:
        with pytest.raises(RuntimeError, match="rank 1 exploded"):
            world.run_spmd(_boom_program, [None, None])
        # the world survives a failed program
        assert world.allreduce([1.0, 1.0]) == 2.0


def test_simworld_run_spmd_reraises_rank_error():
    world = SimWorld(2)
    # the rank's own exception, not a WorkerFailure wrapper
    with pytest.raises(ValueError, match="rank 1 exploded"):
        world.run_spmd(_boom_program, [None, None])
    # the world survives a failed program
    assert world.allreduce([1.0, 1.0]) == 2.0


def _orphan_recv_program(comm, payload):
    if comm.rank == 0:
        comm.Recv(1, tag=7)  # rank 1 never sends
    return comm.rank


def test_simworld_run_spmd_reports_deadlock():
    with pytest.raises(RuntimeError, match="rank 0: no message from 1 tag 7"):
        SimWorld(2).run_spmd(_orphan_recv_program, [None, None])


def _ring_program(comm, rounds):
    # every rank adds its left neighbour's value, round after round;
    # the receive usually finds an empty mailbox, so the baton moves
    v = np.array([float(comm.rank)])
    left = (comm.rank - 1) % comm.size
    for _ in range(rounds):
        comm.Send(v, (comm.rank + 1) % comm.size, tag=3)
        v = v + comm.Recv(left, tag=3)
    return float(v[0])


def test_simworld_run_spmd_ring_stress():
    # more rank threads than cores, with frequent interpreter switches:
    # a lost or reordered message would change the sums
    nranks, rounds = 8, 40
    want = np.arange(nranks, dtype=float)
    for _ in range(rounds):
        want = want + np.roll(want, 1)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        world = SimWorld(nranks)
        got = world.run_spmd(_ring_program, [rounds] * nranks)
    finally:
        sys.setswitchinterval(old)
    assert got == want.tolist()
    assert all(s.messages_sent == rounds for s in world.stats)


def test_shared_array_roundtrip():
    shm, view = create_shared_array((7, 3))
    try:
        view[:] = np.arange(21.0).reshape(7, 3)
        shm2, view2 = attach_shared_array(shm.name, (7, 3))
        assert np.array_equal(view2, view)
        del view2
        shm2.close()
    finally:
        del view
        shm.close()
        shm.unlink()


def test_measure_transport_sane():
    with ProcWorld(2) as world:
        meas = measure_transport(world, sizes=(64, 1024), repeats=5)
    assert meas["alpha"] > 0
    assert meas["beta"] > 0
    assert meas["gamma"] >= 0
    # one (median round time) sample per (size, burst) configuration
    assert len(meas["samples"]) == 2 * 2
    for nbytes, burst, seconds in meas["samples"]:
        assert nbytes in (64, 1024)
        assert burst in (1, 2)
        assert seconds > 0


# --------------------------------------------- checkpoint_schedule edges


def test_checkpoint_schedule_more_slots_than_steps():
    # nsteps < slots: stride collapses to 1, one snapshot per step,
    # never more snapshots than steps
    sched = checkpoint_schedule(3, 10)
    assert sched == [0, 1, 2]


def test_checkpoint_schedule_single_slot():
    # slots == 1: only the initial state is stored; the backward sweep
    # recomputes the whole trajectory from step 0
    assert checkpoint_schedule(100, 1) == [0]
    assert checkpoint_schedule(1, 1) == [0]


def test_checkpoint_schedule_degenerate_and_invalid():
    assert checkpoint_schedule(0, 4) == [0]
    with pytest.raises(ValueError):
        checkpoint_schedule(10, 0)
