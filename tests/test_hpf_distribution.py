"""Unit and property tests for the one-dimensional distribution algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DistributionError
from repro.hpf.distribution import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
    ReplicatedDistribution,
    make_distribution,
)


# ---------------------------------------------------------------------------
# BLOCK
# ---------------------------------------------------------------------------
class TestBlockDistribution:
    def test_paper_example_extents(self):
        # 1024 columns over 16 processors -> 64 columns each (paper, Table 1 setup)
        dist = BlockDistribution(1024, 16)
        assert all(dist.local_size(p) == 64 for p in range(16))

    def test_owner_is_contiguous(self):
        dist = BlockDistribution(64, 4)
        owners = dist.owners()
        assert list(owners[:16]) == [0] * 16
        assert list(owners[16:32]) == [1] * 16
        assert list(owners[-16:]) == [3] * 16

    def test_uneven_extent_last_processor_short(self):
        dist = BlockDistribution(10, 4)  # ceil(10/4) = 3 -> sizes 3,3,3,1
        assert [dist.local_size(p) for p in range(4)] == [3, 3, 3, 1]

    def test_some_processors_may_own_nothing(self):
        dist = BlockDistribution(4, 8)  # block = 1 -> procs 4..7 own nothing
        assert [dist.local_size(p) for p in range(8)] == [1, 1, 1, 1, 0, 0, 0, 0]

    def test_local_bounds(self):
        dist = BlockDistribution(100, 3)  # block = 34
        assert dist.local_bounds(0) == (0, 34)
        assert dist.local_bounds(1) == (34, 68)
        assert dist.local_bounds(2) == (68, 100)

    def test_out_of_range_index_raises(self):
        dist = BlockDistribution(8, 2)
        with pytest.raises(DistributionError):
            dist.owner(8)
        with pytest.raises(DistributionError):
            dist.owner(-1)

    def test_out_of_range_processor_raises(self):
        dist = BlockDistribution(8, 2)
        with pytest.raises(DistributionError):
            dist.local_size(2)

    def test_out_of_range_local_index_raises(self):
        dist = BlockDistribution(10, 4)
        with pytest.raises(DistributionError):
            dist.local_to_global(3, 2)  # proc 3 owns only 1 element

    def test_zero_extent(self):
        dist = BlockDistribution(0, 4)
        assert all(dist.local_size(p) == 0 for p in range(4))

    def test_invalid_construction(self):
        with pytest.raises(DistributionError):
            BlockDistribution(10, 0)
        with pytest.raises(DistributionError):
            BlockDistribution(-1, 2)


# ---------------------------------------------------------------------------
# CYCLIC and CYCLIC(k)
# ---------------------------------------------------------------------------
class TestCyclicDistribution:
    def test_round_robin_owner(self):
        dist = CyclicDistribution(10, 3)
        assert list(dist.owners()) == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]

    def test_local_sizes_sum_to_extent(self):
        dist = CyclicDistribution(10, 3)
        assert [dist.local_size(p) for p in range(3)] == [4, 3, 3]

    def test_local_indices_strided(self):
        dist = CyclicDistribution(12, 4)
        np.testing.assert_array_equal(dist.local_indices(1), [1, 5, 9])


class TestBlockCyclicDistribution:
    def test_block_two_owners(self):
        dist = BlockCyclicDistribution(12, 3, block=2)
        assert list(dist.owners()) == [0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2]

    def test_partial_last_block(self):
        dist = BlockCyclicDistribution(7, 2, block=2)  # blocks: [0,1],[2,3],[4,5],[6]
        assert [dist.local_size(p) for p in range(2)] == [4, 3]

    def test_invalid_block_size(self):
        with pytest.raises(DistributionError):
            BlockCyclicDistribution(8, 2, block=0)

    def test_reduces_to_cyclic_with_block_one(self):
        bc = BlockCyclicDistribution(17, 4, block=1)
        cy = CyclicDistribution(17, 4)
        assert list(bc.owners()) == list(cy.owners())


# ---------------------------------------------------------------------------
# Replicated
# ---------------------------------------------------------------------------
class TestReplicatedDistribution:
    def test_identity_mapping(self):
        dist = ReplicatedDistribution(9, 1)
        assert not dist.is_distributed()
        assert dist.local_size(0) == 9
        assert dist.global_to_local(5) == 5
        assert dist.local_to_global(0, 5) == 5


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------
class TestFactory:
    def test_block(self):
        assert isinstance(make_distribution("block", 8, 2), BlockDistribution)

    def test_cyclic(self):
        assert isinstance(make_distribution("cyclic", 8, 2), CyclicDistribution)

    def test_block_cyclic(self):
        dist = make_distribution("cyclic", 8, 2, block=3)
        assert isinstance(dist, BlockCyclicDistribution)

    def test_collapsed(self):
        assert isinstance(make_distribution("*", 8, 2), ReplicatedDistribution)

    def test_unknown_kind(self):
        with pytest.raises(DistributionError):
            make_distribution("diagonal", 8, 2)


# ---------------------------------------------------------------------------
# property-based invariants shared by all distributions
# ---------------------------------------------------------------------------
_dist_strategy = st.sampled_from(["block", "cyclic", "cyclic2", "cyclic3"])


def _build(kind: str, extent: int, nprocs: int):
    if kind == "block":
        return BlockDistribution(extent, nprocs)
    if kind == "cyclic":
        return CyclicDistribution(extent, nprocs)
    if kind == "cyclic2":
        return BlockCyclicDistribution(extent, nprocs, block=2)
    return BlockCyclicDistribution(extent, nprocs, block=3)


@settings(max_examples=200, deadline=None)
@given(kind=_dist_strategy, extent=st.integers(1, 200), nprocs=st.integers(1, 17))
def test_round_trip_global_local(kind, extent, nprocs):
    """global -> (owner, local) -> global must be the identity."""
    dist = _build(kind, extent, nprocs)
    for g in range(extent):
        owner = dist.owner(g)
        local = dist.global_to_local(g)
        assert dist.local_to_global(owner, local) == g


@settings(max_examples=200, deadline=None)
@given(kind=_dist_strategy, extent=st.integers(0, 200), nprocs=st.integers(1, 17))
def test_local_sizes_partition_extent(kind, extent, nprocs):
    """Every global index is owned by exactly one processor."""
    if extent == 0:
        dist = _build(kind, 1, nprocs)  # constructors reject extent 0 only for cyclic? keep simple
        dist = _build(kind, extent, nprocs) if kind == "block" else dist
        return
    dist = _build(kind, extent, nprocs)
    assert sum(dist.local_size(p) for p in range(nprocs)) == extent
    seen = set()
    for p in range(nprocs):
        for g in dist.local_indices(p):
            assert g not in seen
            seen.add(int(g))
    assert seen == set(range(extent))


@settings(max_examples=200, deadline=None)
@given(kind=_dist_strategy, extent=st.integers(1, 200), nprocs=st.integers(1, 17))
def test_owner_matches_local_indices(kind, extent, nprocs):
    """owner(g) == p exactly when g is among local_indices(p)."""
    dist = _build(kind, extent, nprocs)
    for p in range(nprocs):
        for g in dist.local_indices(p):
            assert dist.owner(int(g)) == p


@settings(max_examples=100, deadline=None)
@given(kind=_dist_strategy, extent=st.integers(1, 120), nprocs=st.integers(1, 12))
def test_block_locality_of_block_distribution(kind, extent, nprocs):
    """BLOCK keeps each processor's indices contiguous."""
    if kind != "block":
        return
    dist = _build(kind, extent, nprocs)
    for p in range(nprocs):
        indices = dist.local_indices(p)
        if len(indices) > 1:
            assert np.all(np.diff(indices) == 1)


# ---------------------------------------------------------------------------
# closed-form local_indices against its definition
# ---------------------------------------------------------------------------
def _by_definition(dist, proc):
    return [dist.local_to_global(proc, lindex) for lindex in range(dist.local_size(proc))]


def _every_kind(extent: int, nprocs: int):
    yield BlockDistribution(extent, nprocs)
    yield CyclicDistribution(extent, nprocs)
    yield ReplicatedDistribution(extent, nprocs)
    for block in (1, 2, 3, 5):
        yield BlockCyclicDistribution(extent, nprocs, block=block)


@settings(max_examples=200, deadline=None)
@given(extent=st.integers(0, 120), nprocs=st.integers(1, 17))
def test_closed_form_local_indices_match_definition(extent, nprocs):
    """Covers uneven extents, partial last CYCLIC(k) blocks, P > N and N = 0."""
    for dist in _every_kind(extent, nprocs):
        for proc in range(nprocs):
            indices = dist.local_indices(proc)
            assert indices.dtype == np.int64
            assert indices.tolist() == _by_definition(dist, proc), (dist, proc)


@pytest.mark.parametrize("extent, nprocs", [(10, 4), (11, 3), (3, 8), (0, 4), (1, 1), (7, 7)])
def test_closed_form_local_indices_edge_cases(extent, nprocs):
    for dist in _every_kind(extent, nprocs):
        for proc in range(nprocs):
            assert dist.local_indices(proc).tolist() == _by_definition(dist, proc)


def test_block_cyclic_partial_last_block():
    dist = BlockCyclicDistribution(11, 2, block=3)  # blocks [0-2][3-5][6-8][9-10]
    assert dist.local_indices(0).tolist() == [0, 1, 2, 6, 7, 8]
    assert dist.local_indices(1).tolist() == [3, 4, 5, 9, 10]


def test_local_indices_reject_bad_processor():
    for dist in _every_kind(8, 2):
        with pytest.raises(DistributionError):
            dist.local_indices(2)


@pytest.mark.parametrize("kinds", [("block", "cyclic"), ("block", "block"), ("cyclic", "block")])
def test_scatter_gather_round_trip_2d(kinds):
    """BLOCK x CYCLIC owns non-contiguous columns (the ``np.ix_`` path);
    BLOCK x BLOCK owns contiguous ranges (the basic-slice path)."""
    from repro.hpf import Alignment, ArrayDescriptor, ProcessorGrid, Template

    shape = (7, 10)  # uneven along both grid dimensions
    template = Template("t", shape, ProcessorGrid("G", (2, 3)), list(kinds))
    desc = ArrayDescriptor("x", shape, Alignment(template, [":", ":"]))
    dense = np.arange(70, dtype=np.float64).reshape(shape)
    locals_ = desc.scatter(dense)
    for rank, local in locals_.items():
        rows, cols = desc.local_index_ranges(rank)
        assert local.shape == desc.local_shape(rank)
        np.testing.assert_array_equal(local, dense[np.ix_(rows, cols)])
        assert not np.shares_memory(local, dense)
    np.testing.assert_array_equal(desc.gather(locals_), dense)
