"""Charge-parity collectives for one rank worker.

:class:`ProcessComm` implements the :class:`~repro.runtime.comm.CommBackend`
interface for a worker process that owns exactly one rank of the machine.
Data really moves over the :class:`~repro.runtime.distributed.transport.PipeTransport`;
*charges* touch only this rank's clock and counter row, applying exactly the
arithmetic :meth:`repro.machine.cluster.Machine.charge_global_sum` (and
friends) applies to that row in the simulator:

* the clock synchronization of a blocking collective becomes an all-reduce of
  the workers' own clock values — ``gap = global_max - my_now`` charged as
  idle time is bitwise the simulator's ``ClockSet.synchronize``, because each
  worker's own clock follows the identical charge sequence as the simulator's
  clock for that rank (induction over the SPMD program);
* the collective seconds come from the same :class:`NetworkModel` formula
  with the same arguments, so they are the same float on every rank;
* the float64 accumulation of a global sum (``reduce_block``) happens at
  rank 0 in rank order, reproducing the simulator's summation order
  bit-for-bit; the engines move a whole slab pair's columns in one such
  block and charge each column with a data-free ``global_sum`` call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import CollectiveError
from repro.machine.cluster import Machine
from repro.runtime.collectives import payload_bytes, sum_in_rank_order
from repro.runtime.comm import CommBackend
from repro.runtime.distributed.transport import PipeTransport

__all__ = ["ProcessComm"]


class ProcessComm(CommBackend):
    """One rank's collectives: real bytes over the transport, own-row charges."""

    def __init__(self, transport: PipeTransport):
        self.transport = transport
        self.rank = transport.rank
        self.machine: Optional[Machine] = None

    def bind(self, machine: Machine) -> None:
        if machine.nprocs != self.transport.nprocs:
            raise CollectiveError(
                f"transport spans {self.transport.nprocs} ranks but the machine "
                f"has {machine.nprocs} processors"
            )
        self.machine = machine

    # ------------------------------------------------------------------
    def _synchronize_to(self, global_now: float) -> None:
        """This rank's share of ``ClockSet.synchronize()`` against the global max."""
        clock = self.machine.clocks[self.rank]
        gap = global_now - clock.now
        if gap > 0:
            clock.advance(gap, "idle")

    def _own_now(self) -> float:
        return self.machine.clocks[self.rank].now

    def _charge_collective(self, seconds: float, messages: int, nbytes_each: int) -> None:
        self.machine.metrics[self.rank].record_collective(
            messages, messages * nbytes_each
        )
        self.machine.clocks[self.rank].advance(seconds, "comm")

    # ------------------------------------------------------------------
    def reduce_block(self, contributions, shape=None):
        """Root sums every rank's block in rank order and broadcasts the total."""
        if contributions is None or self.rank not in contributions:
            raise CollectiveError(
                "the distributed backend runs EXECUTE mode only; reduce_block "
                "needs this rank's contribution"
            )
        gathered = self.transport.gather_to_root(np.asarray(contributions[self.rank]), 0)
        total = None
        if self.transport.rank == 0:
            total = sum_in_rank_order(dict(enumerate(gathered)), self.machine.nprocs, shape)
        return np.asarray(self.transport.broadcast_from(total, 0))

    def global_sum(self, contributions, *, shape, itemsize):
        """All-reduce; ``contributions=None`` charges without moving data.

        Either way the ranks exchange clocks, so every call synchronizes
        exactly like the simulator's ``charge_global_sum``.
        """
        machine = self.machine
        nprocs = machine.nprocs
        nbytes = payload_bytes(shape, itemsize)
        nelements = nbytes // max(int(itemsize), 1)
        total = None if contributions is None else self.reduce_block(contributions, shape)
        global_now = float(self.transport.allreduce(self._own_now(), max))
        self._synchronize_to(global_now)
        seconds = machine.network.global_sum(nbytes, nprocs, nelements)
        rounds = machine.network.params.collective_rounds(nprocs)
        self._charge_collective(seconds, rounds, nbytes)
        return total

    # ------------------------------------------------------------------
    def broadcast(self, root, data, *, shape, itemsize):
        machine = self.machine
        nprocs = machine.nprocs
        nbytes = payload_bytes(shape, itemsize)

        global_now = float(self.transport.allreduce(self._own_now(), max))
        self._synchronize_to(global_now)
        seconds = machine.network.broadcast(nbytes, nprocs)
        rounds = machine.network.params.collective_rounds(nprocs)
        self._charge_collective(seconds, rounds, nbytes)

        payload = self.transport.broadcast_from(
            np.asarray(data) if self.rank == root else None, root
        )
        if payload is None:
            raise CollectiveError(
                f"broadcast from rank {root} delivered no payload (EXECUTE mode "
                "needs real data)"
            )
        value = np.asarray(payload)
        expected = tuple(int(s) for s in shape)
        if value.shape != expected:
            raise CollectiveError(
                f"broadcast: data shape {value.shape}, expected {expected}"
            )
        return value

    # ------------------------------------------------------------------
    def charge_all_to_all(self, nbytes_per_pair: int) -> float:
        machine = self.machine
        nprocs = machine.nprocs
        global_now = float(self.transport.allreduce(self._own_now(), max))
        self._synchronize_to(global_now)
        seconds = machine.network.all_to_all(nbytes_per_pair, nprocs)
        exchanges = max(nprocs - 1, 0)
        self._charge_collective(seconds, exchanges, nbytes_per_pair)
        return seconds

    # ------------------------------------------------------------------
    def scatter(self, root, parts):
        """Move ``parts[r]`` to each rank ``r``; pure transport, never charged.

        (The matching cost is charged separately by the engine —
        the transpose engine charges ``charge_all_to_all`` per slab.)
        """
        piece = self.transport.scatter_from(root, parts)
        return {self.rank: np.asarray(piece)}
