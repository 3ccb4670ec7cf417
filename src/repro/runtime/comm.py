"""Collective-communication backends for the virtual machine.

The engines in :mod:`repro.runtime.executor` reach every collective through
``vm.comm`` so one code path serves two execution styles:

* :class:`SimulatedComm` — all P simulated processors live in this process.
  Data movement is NumPy arithmetic and every processor's clocks/counters are
  charged together, by delegating to the module-level collectives of
  :mod:`repro.runtime.collectives` and the machine's ``charge_*`` methods.
  This is the historical behaviour, bit-for-bit.
* ``ProcessComm`` (:mod:`repro.runtime.distributed.proc_comm`) — one rank per
  OS process.  Bytes really move between workers over a pipe/shared-memory
  transport, and each worker charges only its *own* rank's clock and counter
  row with exactly the arithmetic the simulator applies to that row, so the
  merged per-processor statistics stay bit-identical to a simulated run.

A backend is bound to a machine once (``bind``), then serves ``global_sum`` /
``reduce_block`` / ``broadcast`` / ``charge_all_to_all`` / ``scatter`` for the
life of the VM.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.machine.cluster import Machine
from repro.runtime import collectives

__all__ = ["CommBackend", "SimulatedComm"]


class CommBackend:
    """Interface the executor engines program against (see module docstring)."""

    #: the single rank this backend serves, or ``None`` for all ranks.
    rank: Optional[int] = None

    def bind(self, machine: Machine) -> None:
        raise NotImplementedError

    def global_sum(
        self,
        contributions: Optional[Dict[int, np.ndarray]],
        *,
        shape: Sequence[int],
        itemsize: int,
    ) -> Optional[np.ndarray]:
        raise NotImplementedError

    def broadcast(
        self,
        root: int,
        data: Optional[np.ndarray],
        *,
        shape: Sequence[int],
        itemsize: int,
    ) -> Optional[np.ndarray]:
        raise NotImplementedError

    def reduce_block(self, contributions: Dict[int, np.ndarray]) -> np.ndarray:
        """Float64 sum of every rank's contribution block, added in rank order.

        Data only, never charged (like :meth:`scatter`): the engines reduce
        a slab pair's columns in one block and charge each column separately
        with ``global_sum(None, ...)``, keeping the per-column charge order.
        """
        raise NotImplementedError

    def charge_all_to_all(self, nbytes_per_pair: int) -> float:
        raise NotImplementedError

    def scatter(
        self, root: int, parts: Optional[Dict[int, np.ndarray]]
    ) -> Dict[int, np.ndarray]:
        raise NotImplementedError


class SimulatedComm(CommBackend):
    """All ranks in-process: delegate to the historical simulated collectives."""

    def __init__(self) -> None:
        self.machine: Optional[Machine] = None

    def bind(self, machine: Machine) -> None:
        self.machine = machine

    def global_sum(self, contributions, *, shape, itemsize):
        return collectives.global_sum(
            self.machine, contributions, shape=shape, itemsize=itemsize
        )

    def reduce_block(self, contributions):
        return collectives.sum_in_rank_order(contributions, self.machine.nprocs)

    def broadcast(self, root, data, *, shape, itemsize):
        # The simulated broadcast does not care which rank owns the payload:
        # every processor is charged and the data is already local.
        return collectives.broadcast(self.machine, data, shape=shape, itemsize=itemsize)

    def charge_all_to_all(self, nbytes_per_pair: int) -> float:
        return self.machine.charge_all_to_all(nbytes_per_pair)

    def scatter(self, root, parts):
        # Every destination's piece is already in this process.
        return dict(parts or {})
