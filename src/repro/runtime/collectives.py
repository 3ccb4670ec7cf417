"""Simulated message passing collectives.

The compiled node programs need three communication primitives:

* :func:`global_sum` — the reduction producing each column (or subcolumn) of
  the result array in the GAXPY kernel,
* :func:`broadcast` — used by redistribution and some kernels, and
* :func:`point_to_point` — a single send/receive pair.

Because all simulated processors live in one OS process, the data movement is
just NumPy arithmetic; the *cost* is charged to the machine model with the
same binomial-tree formulas an NX / MPI implementation would incur.  In
``ESTIMATE`` mode the data arguments may be ``None`` and only costs are
charged.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import CollectiveError
from repro.machine.cluster import Machine

__all__ = ["global_sum", "sum_in_rank_order", "broadcast", "point_to_point", "payload_bytes"]


def payload_bytes(shape: Sequence[int], itemsize: int) -> int:
    """Bytes of a message carrying an array of ``shape`` with ``itemsize`` elements."""
    nelements = 1
    for extent in shape:
        nelements *= int(extent)
    return nelements * int(itemsize)


def global_sum(
    machine: Machine,
    contributions: Optional[Dict[int, np.ndarray]],
    *,
    shape: Sequence[int],
    itemsize: int,
) -> Optional[np.ndarray]:
    """Element-wise sum of one contribution per processor (all-reduce).

    Parameters
    ----------
    machine:
        Machine to charge; all its processors take part.
    contributions:
        Mapping rank -> local contribution, or ``None`` in estimate mode.
    shape / itemsize:
        Payload geometry, used for cost accounting (and validation).
    """
    nbytes = payload_bytes(shape, itemsize)
    nelements = nbytes // max(int(itemsize), 1)
    machine.charge_global_sum(nbytes, nelements=nelements)
    if contributions is None:
        return None
    return sum_in_rank_order(contributions, machine.nprocs, shape)


def sum_in_rank_order(
    contributions: Dict[int, np.ndarray], nprocs: int, shape: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Float64 sum of one contribution per rank, added in rank order.

    The data half of :func:`global_sum`, uncharged.  Every backend reduces
    through it, so a block of columns summed at once is bitwise the
    column-by-column result: the elementwise additions are the same, in the
    same order.  ``shape`` (optional) is checked against every contribution;
    without it they must agree with rank 0's.
    """
    if len(contributions) != nprocs:
        raise CollectiveError(
            f"global_sum expected {nprocs} contributions, got {len(contributions)}"
        )
    expected = None if shape is None else tuple(int(s) for s in shape)
    total: Optional[np.ndarray] = None
    for rank in range(nprocs):
        if rank not in contributions:
            raise CollectiveError(f"global_sum missing contribution from rank {rank}")
        piece = np.asarray(contributions[rank])
        if expected is None:
            expected = piece.shape
        if piece.shape != expected:
            raise CollectiveError(
                f"global_sum: rank {rank} contributed shape {piece.shape}, expected {expected}"
            )
        if total is None:
            total = piece.astype(np.float64, copy=True)
        else:
            np.add(total, piece, out=total)
    assert total is not None
    return total


def broadcast(
    machine: Machine,
    data: Optional[np.ndarray],
    *,
    shape: Sequence[int],
    itemsize: int,
) -> Optional[np.ndarray]:
    """Broadcast ``data`` from one processor to all others; returns the payload."""
    nbytes = payload_bytes(shape, itemsize)
    machine.charge_broadcast(nbytes)
    if data is None:
        return None
    data = np.asarray(data)
    expected = tuple(int(s) for s in shape)
    if data.shape != expected:
        raise CollectiveError(f"broadcast: data shape {data.shape}, expected {expected}")
    return data


def point_to_point(
    machine: Machine,
    src: int,
    dst: int,
    data: Optional[np.ndarray],
    *,
    nbytes: int,
) -> Optional[np.ndarray]:
    """Send ``data`` from ``src`` to ``dst``; returns the delivered payload."""
    machine.charge_send(src, dst, nbytes)
    return data
