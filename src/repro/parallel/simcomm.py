"""Pluggable-transport MPI with exact traffic accounting.

:class:`SimComm` is the per-rank communicator handle with the usual
point-to-point and collective operations (numpy-buffer style, mirroring
mpi4py's upper-case API, with the historical lower-case aliases kept).
It is a thin facade over a **transport** — any object implementing the
small world-side protocol below — so the same SPMD rank program runs
unchanged over either backing:

* :class:`SimWorld` (this module): ``P`` in-process mailboxes moved
  through deques.  :meth:`SimWorld.run_spmd` runs each rank program on
  its own thread, but a single baton lets exactly one rank execute at a
  time, handed on only when a rank blocks on an empty mailbox or
  finishes — parallel *semantics* (who sends what to whom each step)
  execute for real, deterministically on one core; only the clock is
  modeled;
* :class:`repro.parallel.transport.ProcWorld`: persistent worker
  processes with double-buffered shared-memory channels — real cores,
  real wall time.

Both worlds run the very same rank programs, so their results and
per-rank accounting agree by construction.  Every send is accounted
(count + payload bytes) per rank, which the machine model converts to
network time, and which the transport equivalence tests compare across
backings message for message.

Transport protocol (what a world must provide to back a ``SimComm``)::

    nranks                      -> int
    _send_from(rank, data, dest, tag)
    _recv_at(rank, source, tag, out=None) -> np.ndarray
    _barrier(rank)
    _add_flops(rank, n)
    rank_stats(rank)            -> TrafficStats
    _heartbeat(rank, step)      (optional: liveness ping, may no-op)
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

#: reserved tag for collective traffic (keeps it out of the
#: point-to-point tag space used by the solvers)
COLLECTIVE_TAG = -1


@dataclass
class TrafficStats:
    """Per-rank communication and work accounting.

    ``peers`` attributes every accounted send to its ``(src, dst)``
    rank pair as ``(messages, bytes)``; the scalar fields remain the
    authoritative totals (callers still bump them directly for modeled
    traffic that has no peer, e.g. machine-model estimates), and
    :meth:`record_send` keeps both in lockstep.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    flops: int = 0
    peers: dict = field(default_factory=dict)
    #: exchange rounds entered (one per superstep that touched the
    #: transport) — lets reports derive messages-per-step under fused
    #: stepping.  Not part of :meth:`as_tuple`, which stays a 3-tuple
    #: for compatibility.
    exchanges: int = 0

    def record_send(self, src: int, dst: int, nbytes: int) -> None:
        """Account one message of ``nbytes`` from ``src`` to ``dst``:
        bumps the scalar totals and the per-pair matrix together."""
        self.messages_sent += 1
        self.bytes_sent += nbytes
        m, b = self.peers.get((src, dst), (0, 0))
        self.peers[(src, dst)] = (m + 1, b + nbytes)

    def copy(self) -> "TrafficStats":
        return TrafficStats(
            self.messages_sent,
            self.bytes_sent,
            self.flops,
            dict(self.peers),
            self.exchanges,
        )

    def merge(self, other: "TrafficStats") -> None:
        self.messages_sent += other.messages_sent
        self.bytes_sent += other.bytes_sent
        self.flops += other.flops
        self.exchanges += other.exchanges
        for pair, (m, b) in other.peers.items():
            pm, pb = self.peers.get(pair, (0, 0))
            self.peers[pair] = (pm + m, pb + b)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.messages_sent, self.bytes_sent, self.flops)

    def peers_payload(self) -> list:
        """Pickle/pipe-friendly form of the peer matrix."""
        return [
            (src, dst, m, b)
            for (src, dst), (m, b) in sorted(self.peers.items())
        ]

    def merge_peers_payload(self, payload) -> None:
        for src, dst, m, b in payload:
            pm, pb = self.peers.get((src, dst), (0, 0))
            self.peers[(src, dst)] = (pm + m, pb + b)


def binomial_rounds(nranks: int) -> list[list[tuple[int, int]]]:
    """Binomial reduction tree: per round, the ``(child, parent)``
    pairs at distance ``2^k``.  Reducing runs the rounds in order
    (children send to parents); broadcasting runs them reversed
    (parents send to children).  Every rank appears as a child exactly
    once, so a full allreduce costs each rank at most ``log2(P) + 1``
    messages — the realistic collective the machine model assumes,
    rather than a ``P``-message gather-to-root."""
    rounds = []
    k = 1
    while k < nranks:
        rounds.append(
            [(r + k, r) for r in range(0, nranks, 2 * k) if r + k < nranks]
        )
        k *= 2
    return rounds


class SimComm:
    """Rank-local communicator handle over a pluggable transport.

    ``world`` is any transport implementing the module-level protocol;
    ``rank`` is this endpoint's rank in it.
    """

    def __init__(self, world, rank: int):
        self.world = world
        self.rank = rank

    @property
    def size(self) -> int:
        return self.world.nranks

    @property
    def stats(self) -> TrafficStats:
        return self.world.rank_stats(self.rank)

    # -------------------------------------------------- point to point

    def Send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        """Ship ``data`` to ``dest``; accounted against this rank.
        Completes locally (buffered) — the BSP schedules used here
        post all sends of a superstep before any receive."""
        self.world._send_from(self.rank, data, dest, tag)

    def Recv(
        self, source: int, tag: int = 0, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Next message from ``source``; written into ``out`` when
        given (zero extra copies on the hot path)."""
        return self.world._recv_at(self.rank, source, tag, out)

    def Barrier(self) -> None:
        self.world._barrier(self.rank)

    def Allreduce(self, value: float, op=sum) -> float:
        """Scalar allreduce over a binomial tree of Send/Recv pairs
        (reduce to rank 0, then broadcast), so the accounting reflects
        ``O(log P)`` critical-path messages.  ``op`` combines a list of
        two partial values.  Requires a concurrent transport (every
        rank must call it); in-process use goes through
        :meth:`SimWorld.allreduce`, which executes the same tree."""
        v = float(value)
        rounds = binomial_rounds(self.size)
        for pairs in rounds:  # reduce
            for child, parent in pairs:
                if self.rank == child:
                    self.Send(np.array([v]), parent, tag=COLLECTIVE_TAG)
                elif self.rank == parent:
                    got = self.Recv(child, tag=COLLECTIVE_TAG)
                    v = float(op([v, float(got[0])]))
        for pairs in reversed(rounds):  # broadcast
            for child, parent in pairs:
                if self.rank == parent:
                    self.Send(np.array([v]), child, tag=COLLECTIVE_TAG)
                elif self.rank == child:
                    v = float(self.Recv(parent, tag=COLLECTIVE_TAG)[0])
        return v

    # historical lower-case aliases (pre-transport API)
    send = Send
    recv = Recv
    barrier = Barrier

    def add_flops(self, n: int) -> None:
        self.world._add_flops(self.rank, n)

    def heartbeat(self, step: int) -> None:
        """Liveness ping for long-running rank programs: lets the
        master's failure detector distinguish "slow" from "hung".
        Rate-limited inside the transport (a no-op in-process), so
        calling it every time step is fine."""
        hb = getattr(self.world, "_heartbeat", None)
        if hb is not None:
            hb(self.rank, step)


class _RankAborted(BaseException):
    """Unwinds a rank of a failed :meth:`SimWorld.run_spmd` at its next
    scheduling point (a ``BaseException`` so that a program's own
    ``except Exception`` cannot swallow it)."""


def _current_cpu() -> int | None:
    """The core the calling thread runs on (Linux), else None."""
    try:
        with open("/proc/thread-self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _set_affinity(cpus) -> None:
    """Restrict the calling thread to ``cpus`` (best effort)."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


class _Baton:
    """The single execution right of one :meth:`SimWorld.run_spmd`.

    Only the rank that holds the baton runs; every other rank thread
    blocks on its own ``go`` lock, which the holder releases to hand
    the baton on, so a hand-off wakes just the new holder.  A rank
    gives the baton away only when it parks (a receive from an empty
    mailbox) or finishes, so everything a rank does between two
    receives — including copying a shared force buffer into its own
    arrays — completes before any other rank runs.  Only the holder
    reads or writes the fields (the caller, before the first hand-off).
    """

    def __init__(self, nranks: int):
        self._go = [threading.Lock() for _ in range(nranks)]
        for go in self._go:
            go.acquire()
        self.done = [False] * nranks
        #: parked rank -> the (empty) mailbox it waits on
        self.parked: dict[int, deque] = {}
        self.failed = False
        # waiting ranks sleep on the caller's core, so a hand-off wakes
        # the next rank where the last one ran, not on another (maybe
        # idle) core; running ranks get the caller's mask back, so
        # threads they start do not inherit the pin
        self._cpu = _current_cpu()
        self._mask = os.sched_getaffinity(0) if self._cpu is not None else None

    def wait(self, rank: int) -> None:
        """Block until ``rank`` holds the baton; unwinds the rank once
        another rank has failed."""
        if self._cpu is None:
            self._go[rank].acquire()
        else:
            _set_affinity({self._cpu})
            self._go[rank].acquire()
            _set_affinity(self._mask)
        if self.failed:
            raise _RankAborted

    def pass_on(self, rank: int) -> None:
        """Hand the baton to the next runnable rank, round robin from
        ``rank + 1``.  When every unfinished rank is parked on a
        mailbox that is still empty, the first of them gets it anyway,
        so its receive reports the deadlock instead of hanging."""
        n = len(self.done)
        live = [
            r for r in ((rank + i) % n for i in range(1, n + 1))
            if not self.done[r]
        ]
        ready = [
            r for r in live
            if self.failed or r not in self.parked or self.parked[r]
        ]
        holder = (ready or live or [None])[0]
        if holder is not None:
            self._go[holder].release()

    def park(self, rank: int, box: deque) -> None:
        """Give the baton away until ``box`` holds a message (or the run
        is deadlocked — the caller re-checks)."""
        self.parked[rank] = box
        try:
            self.pass_on(rank)
            self.wait(rank)
        finally:
            del self.parked[rank]


class SimWorld:
    """A set of ``P`` simulated ranks sharing in-memory mailboxes.

    Rank programs run through :meth:`run_spmd`, with the same contract
    as :meth:`repro.parallel.transport.ProcWorld.run_spmd`.  Outside a
    program, :meth:`comms` hands out endpoints that the caller drives
    in lockstep: a receive from an empty mailbox raises at once.
    """

    def __init__(self, nranks: int):
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.nranks = nranks
        self._mail: dict[tuple[int, int, int], deque] = defaultdict(deque)
        self.stats = [TrafficStats() for _ in range(nranks)]
        self._baton: _Baton | None = None

    def comm(self, rank: int) -> SimComm:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range")
        return SimComm(self, rank)

    def comms(self) -> list[SimComm]:
        return [self.comm(r) for r in range(self.nranks)]

    def total_stats(self) -> TrafficStats:
        out = TrafficStats()
        for s in self.stats:
            out.merge(s)
        return out

    def run_spmd(self, program, payloads: list) -> list:
        """Run ``program(comm, payload)`` once per rank; returns the
        per-rank results.

        Each rank runs on its own thread (sharing the caller's
        process-wide trace context), but a baton lets exactly one rank
        execute at a time.  The holder passes it on, round robin, only
        when it receives from an empty mailbox or when it returns or
        raises — so a run is single-core and deterministic.  When every
        unfinished rank waits on an empty mailbox, the blocked receive
        raises the same ``RuntimeError`` as a lockstep receive would.
        When a rank raises, the other ranks are unwound at their next
        scheduling point, the mailboxes are emptied, and the first
        failing rank's own exception is re-raised (not wrapped in a
        :class:`~repro.parallel.transport.WorkerFailure`).
        """
        if len(payloads) != self.nranks:
            raise ValueError("one payload per rank required")
        if self._baton is not None:
            raise RuntimeError("run_spmd is already running on this world")
        baton = self._baton = _Baton(self.nranks)
        results: list = [None] * self.nranks
        errors: list = []

        def rank_main(rank: int) -> None:
            try:
                baton.wait(rank)
                results[rank] = program(self.comm(rank), payloads[rank])
            except _RankAborted:
                pass
            except BaseException as exc:  # re-raised by the caller
                errors.append(exc)
                baton.failed = True
            finally:
                baton.done[rank] = True
                baton.pass_on(rank)

        threads = [
            threading.Thread(
                target=rank_main, args=(r,), name=f"simworld-rank{r}",
                daemon=True,
            )
            for r in range(self.nranks)
        ]
        try:
            # no rank runs before every thread has started (a running
            # rank would contend for the GIL with the starting loop)
            for t in threads:
                t.start()
            baton.pass_on(self.nranks - 1)  # to rank 0
            for t in threads:
                t.join()
        finally:
            self._baton = None
        if errors:
            self._mail.clear()  # the failed program's undelivered sends
            raise errors[0]
        return results

    def allreduce(self, values: list[float], op=sum) -> float:
        """World-level scalar allreduce (one value per rank): every
        rank walks :meth:`SimComm.Allreduce`'s binomial tree through
        the mailboxes — the same program :meth:`ProcWorld.allreduce`
        runs, so the per-rank message/byte accounting is *measured*,
        not modeled."""
        if len(values) != self.nranks:
            raise ValueError("one value per rank required")
        return self.run_spmd(
            _allreduce_program, [(float(v), op) for v in values]
        )[0]

    # ------------------------------------------------ transport protocol

    def _send_from(
        self, rank: int, data: np.ndarray, dest: int, tag: int
    ) -> None:
        data = np.asarray(data)
        self._mail[(rank, dest, tag)].append(data.copy())
        self.stats[rank].record_send(rank, dest, data.nbytes)

    def _recv_at(
        self, rank: int, source: int, tag: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        box = self._mail[(source, rank, tag)]
        if not box and self._baton is not None:
            self._baton.park(rank, box)
        if not box:
            raise RuntimeError(
                f"rank {rank}: no message from {source} tag {tag}"
            )
        got = box.popleft()
        if out is not None:
            np.copyto(out, got)
            return out
        return got

    def _barrier(self, rank: int) -> None:
        # lockstep callers order their supersteps themselves; rank
        # programs under run_spmd synchronise only through mailbox
        # receives, which already wait for the matching send
        pass

    def _add_flops(self, rank: int, n: int) -> None:
        self.stats[rank].flops += int(n)

    def rank_stats(self, rank: int) -> TrafficStats:
        return self.stats[rank]


def _allreduce_program(comm, payload):
    """Rank program behind both worlds' ``allreduce``."""
    value, op = payload
    return comm.Allreduce(value, op=op)
