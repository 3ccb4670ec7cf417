"""Global (distributed) array descriptors.

An :class:`ArrayDescriptor` ties together the pieces declared by the HPF
directives — a shape, an element type, an alignment with a template, and the
template's distribution onto a processor grid — and answers the questions the
compiler and runtime need:

* which processor owns a global element (*owner computes* rule),
* how a global index translates into the owner's local index and back,
* the shape of the local array on every processor, and
* how a dense global array is scattered into local arrays / gathered back.

For the paper's program the descriptors of ``A`` and ``C`` report a
*column-block* distribution and the descriptor of ``B`` a *row-block*
distribution.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import AlignmentError, DistributionError
from repro.hpf.align import Alignment
from repro.hpf.distribution import Distribution, ReplicatedDistribution
from repro.hpf.processors import ProcessorGrid
from repro.hpf.template import Template

__all__ = ["ArrayDescriptor"]


class ArrayDescriptor:
    """Descriptor of a globally addressed, possibly distributed array.

    Parameters
    ----------
    name:
        Array name as it appears in the source program.
    shape:
        Global shape.
    alignment:
        :class:`~repro.hpf.align.Alignment` with a template; its number of
        entries must match ``len(shape)``.
    dtype:
        NumPy element type (the paper uses ``real``, i.e. ``float32``; the
        library defaults to ``float64``).
    out_of_core:
        Whether the array is declared out-of-core (stored in Local Array Files
        and staged through slabs) or in-core (kept in simulated node memory).
    """

    def __init__(
        self,
        name: str,
        shape: Sequence[int],
        alignment: Alignment,
        dtype: np.dtype | str = np.float64,
        out_of_core: bool = True,
    ):
        self.name = str(name)
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        if any(s < 0 for s in self.shape):
            raise DistributionError(f"array {name!r} has negative extent in {self.shape}")
        self.alignment = alignment
        self.template: Template = alignment.template
        self.grid: ProcessorGrid = self.template.grid
        self.dtype = np.dtype(dtype)
        self.out_of_core = bool(out_of_core)

        if alignment.ndim != len(self.shape):
            raise AlignmentError(
                f"array {name!r} has {len(self.shape)} dimensions but the alignment "
                f"has {alignment.ndim} entries"
            )

        # Resolve one Distribution per array dimension.
        self._dists: List[Distribution] = []
        for dim, spec in enumerate(alignment.specs):
            extent = self.shape[dim]
            if spec.collapsed or not self.template.is_distributed(spec.target):
                self._dists.append(ReplicatedDistribution(extent, 1))
                continue
            if spec.offset != 0:
                raise AlignmentError(
                    f"array {name!r}: shifted alignments onto distributed template "
                    "dimensions are not supported"
                )
            template_extent = self.template.shape[spec.target]
            if extent != template_extent:
                raise AlignmentError(
                    f"array {name!r} dimension {dim} has extent {extent} but aligns with "
                    f"template dimension {spec.target} of extent {template_extent}"
                )
            self._dists.append(self.template.distribution(spec.target))
        # Host-side index maps, computed on first use (the geometry above
        # never changes after construction).
        self._selections: Dict[int, Tuple[Tuple, Tuple[int, ...]]] = {}
        self._owner_maps: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return self.size * self.itemsize

    @property
    def nprocs(self) -> int:
        """Total number of processors in the underlying grid."""
        return self.grid.size

    def dim_distribution(self, dim: int) -> Distribution:
        """Distribution governing array dimension ``dim``."""
        return self._dists[dim]

    def distributed_dims(self) -> Tuple[int, ...]:
        """Array dimensions that are actually spread across processors."""
        return tuple(i for i, d in enumerate(self._dists) if d.is_distributed())

    def is_distributed(self) -> bool:
        return bool(self.distributed_dims())

    # ------------------------------------------------------------------
    # ownership and index translation
    # ------------------------------------------------------------------
    def _grid_coords_of(self, index: Sequence[int]) -> Tuple[int, ...]:
        coords = [0] * self.grid.ndim
        for dim, spec in enumerate(self.alignment.specs):
            dist = self._dists[dim]
            if not dist.is_distributed():
                continue
            grid_dim = self.template.grid_dim(spec.target)  # type: ignore[arg-type]
            coords[grid_dim] = dist.owner(index[dim])
        return tuple(coords)

    def owner_of(self, index: Sequence[int]) -> int:
        """Linearised rank of the processor owning global element ``index``."""
        index = self._check_index(index)
        return self.grid.rank_of(self._grid_coords_of(index))

    def owner_of_dim(self, dim: int, gindex: int) -> int:
        """Rank owning any element whose ``dim`` coordinate is ``gindex``.

        Only meaningful when ``dim`` is the array's sole distributed dimension
        (as for every array in the paper's program); in that case the owner of
        an element is determined by that one coordinate.
        """
        owners, _ = self.dim_owner_map(dim)
        index = [0] * self.ndim
        index[dim] = gindex
        self._check_index(index)
        return int(owners[int(gindex)])

    def dim_owner_map(self, dim: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(owner rank, local index)`` of every global index along ``dim``.

        :meth:`owner_of_dim` and :meth:`global_to_local` over the whole
        dimension, computed once per descriptor and cached (read-only
        arrays).  Defined only when ``dim`` is the sole distributed dimension.
        """
        cached = self._owner_maps.get(dim)
        if cached is not None:
            return cached
        distributed = self.distributed_dims()
        if distributed != (dim,):
            raise DistributionError(
                f"owners along dimension {dim} are only defined when it is the unique "
                f"distributed dimension; array {self.name!r} distributes {distributed}"
            )
        dist = self._dists[dim]
        grid_dim = self.template.grid_dim(self.alignment.specs[dim].target)  # type: ignore[arg-type]
        owners = np.empty(self.shape[dim], dtype=np.int64)
        local = np.empty(self.shape[dim], dtype=np.int64)
        coords = [0] * self.grid.ndim
        for coord in range(dist.nprocs):
            owned = dist.local_indices(coord)
            coords[grid_dim] = coord
            owners[owned] = self.grid.rank_of(tuple(coords))
            local[owned] = np.arange(owned.size)
        owners.setflags(write=False)
        local.setflags(write=False)
        cached = (owners, local)
        self._owner_maps[dim] = cached
        return cached

    def global_to_local(self, index: Sequence[int]) -> Tuple[int, ...]:
        """Translate a global index into the owner's local index."""
        index = self._check_index(index)
        return tuple(self._dists[d].global_to_local(index[d]) for d in range(self.ndim))

    def local_to_global(self, rank: int, lindex: Sequence[int]) -> Tuple[int, ...]:
        """Translate processor ``rank``'s local index into a global index."""
        coords = self.grid.coordinates(rank)
        out = []
        for dim, spec in enumerate(self.alignment.specs):
            dist = self._dists[dim]
            if dist.is_distributed():
                grid_dim = self.template.grid_dim(spec.target)  # type: ignore[arg-type]
                out.append(dist.local_to_global(coords[grid_dim], lindex[dim]))
            else:
                out.append(dist.local_to_global(0, lindex[dim]))
        return tuple(out)

    def local_shape(self, rank: int) -> Tuple[int, ...]:
        """Shape of the local array on processor ``rank``."""
        coords = self.grid.coordinates(rank)
        shape = []
        for dim, spec in enumerate(self.alignment.specs):
            dist = self._dists[dim]
            if dist.is_distributed():
                grid_dim = self.template.grid_dim(spec.target)  # type: ignore[arg-type]
                shape.append(dist.local_size(coords[grid_dim]))
            else:
                shape.append(dist.local_size(0))
        return tuple(shape)

    def local_size(self, rank: int) -> int:
        total = 1
        for extent in self.local_shape(rank):
            total *= extent
        return total

    def local_nbytes(self, rank: int) -> int:
        return self.local_size(rank) * self.itemsize

    def max_local_nbytes(self) -> int:
        return max(self.local_nbytes(r) for r in range(self.nprocs))

    def local_index_ranges(self, rank: int) -> Tuple[np.ndarray, ...]:
        """Global indices owned by ``rank`` along each dimension."""
        coords = self.grid.coordinates(rank)
        ranges = []
        for dim, spec in enumerate(self.alignment.specs):
            dist = self._dists[dim]
            if dist.is_distributed():
                grid_dim = self.template.grid_dim(spec.target)  # type: ignore[arg-type]
                ranges.append(dist.local_indices(coords[grid_dim]))
            else:
                ranges.append(dist.local_indices(0))
        return tuple(ranges)

    def _check_index(self, index: Sequence[int]) -> Tuple[int, ...]:
        index = tuple(int(i) for i in index)
        if len(index) != self.ndim:
            raise DistributionError(
                f"index {index} has {len(index)} dimensions, array {self.name!r} has {self.ndim}"
            )
        for dim, (i, extent) in enumerate(zip(index, self.shape, strict=True)):
            if not 0 <= i < extent:
                raise DistributionError(
                    f"index {i} outside extent {extent} in dimension {dim} of array {self.name!r}"
                )
        return index

    # ------------------------------------------------------------------
    # scatter / gather of dense data
    # ------------------------------------------------------------------
    def _selection(self, rank: int) -> Tuple[Tuple, Tuple[int, ...]]:
        """Index into the global array selecting ``rank``'s part, and its shape.

        Basic slices when every owned range is contiguous (BLOCK and
        replicated dimensions), an ``np.ix_`` index otherwise.  Cached.
        """
        cached = self._selections.get(rank)
        if cached is not None:
            return cached
        ranges = self.local_index_ranges(rank)
        shape = tuple(len(r) for r in ranges)
        if all(r.size == 0 or int(r[-1]) - int(r[0]) + 1 == r.size for r in ranges):
            index: Tuple = tuple(
                slice(int(r[0]), int(r[-1]) + 1) if r.size else slice(0, 0) for r in ranges
            )
        else:
            index = np.ix_(*ranges)
        self._selections[rank] = (index, shape)
        return index, shape

    def scatter(self, global_array: np.ndarray) -> Dict[int, np.ndarray]:
        """Split a dense global array into per-processor local arrays."""
        global_array = np.asarray(global_array, dtype=self.dtype)
        if global_array.shape != self.shape:
            raise DistributionError(
                f"scatter: array shape {global_array.shape} does not match descriptor shape {self.shape}"
            )
        locals_: Dict[int, np.ndarray] = {}
        for rank in range(self.nprocs):
            index, _ = self._selection(rank)
            part = global_array[index]
            # Basic slices give a view to copy; fancy indexing already copied.
            sliced = all(isinstance(i, slice) for i in index)
            locals_[rank] = np.array(part) if sliced else part
        return locals_

    def gather(self, local_arrays: Dict[int, np.ndarray]) -> np.ndarray:
        """Reassemble a dense global array from per-processor local arrays."""
        out = np.zeros(self.shape, dtype=self.dtype)
        for rank in range(self.nprocs):
            if rank not in local_arrays:
                raise DistributionError(f"gather: missing local array for rank {rank}")
            index, expected = self._selection(rank)
            local = np.asarray(local_arrays[rank], dtype=self.dtype)
            if local.shape != expected:
                raise DistributionError(
                    f"gather: rank {rank} local shape {local.shape} does not match expected {expected}"
                )
            out[index] = local
        return out

    # ------------------------------------------------------------------
    # descriptions
    # ------------------------------------------------------------------
    def distribution_name(self) -> str:
        """Human-readable name of the distribution pattern.

        For two-dimensional arrays the paper's vocabulary is used:
        ``column-block`` (dimension 1 distributed BLOCK), ``row-block``
        (dimension 0 distributed BLOCK), etc.
        """
        if self.ndim == 2:
            d0, d1 = self._dists
            if d0.is_distributed() and not d1.is_distributed():
                return f"row-{self._pattern_name(0)}"
            if d1.is_distributed() and not d0.is_distributed():
                return f"column-{self._pattern_name(1)}"
            if d0.is_distributed() and d1.is_distributed():
                return f"{self._pattern_name(0)} x {self._pattern_name(1)}"
            return "replicated"
        if not self.is_distributed():
            return "replicated"
        parts = []
        for dim in range(self.ndim):
            parts.append(self._pattern_name(dim) if self._dists[dim].is_distributed() else "*")
        return "(" + ", ".join(parts) + ")"

    def _pattern_name(self, dim: int) -> str:
        dist = self._dists[dim]
        name = type(dist).__name__
        if name == "BlockDistribution":
            return "block"
        if name == "CyclicDistribution":
            return "cyclic"
        if name == "BlockCyclicDistribution":
            return f"cyclic({dist.block})"  # type: ignore[attr-defined]
        return "replicated"

    def describe(self) -> str:
        return (
            f"{self.name}{list(self.shape)} dtype={self.dtype.name} "
            f"{self.distribution_name()} over {self.grid.size} processors "
            f"({'out-of-core' if self.out_of_core else 'in-core'})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayDescriptor({self.describe()})"
