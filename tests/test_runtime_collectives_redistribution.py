"""Direct tests for :mod:`repro.runtime.collectives` and
:mod:`repro.runtime.redistribution` (previously covered only indirectly
through the kernels)."""

import pickle

import numpy as np
import pytest

from repro.config import ExecutionMode, RunConfig
from repro.exceptions import CollectiveError, RuntimeExecutionError
from repro.hpf import Alignment, ArrayDescriptor, ProcessorGrid, Template
from repro.machine import Machine
from repro.runtime import VirtualMachine, broadcast, global_sum, point_to_point
from repro.runtime.collectives import payload_bytes
from repro.runtime.redistribution import (
    arrival_layout_rows,
    redistribute_to_descriptor,
    redistribution_cost,
)


def column_block_descriptor(n, p, name="x", dtype=np.float32):
    grid = ProcessorGrid("Pr", p)
    template = Template("d", n, grid, ["block"])
    return ArrayDescriptor(name, (n, n), Alignment(template, ["*", ":"]), dtype=dtype)


# ---------------------------------------------------------------------------
# collectives
# ---------------------------------------------------------------------------
class TestPayloadBytes:
    def test_product_of_shape_times_itemsize(self):
        assert payload_bytes((4, 8), 4) == 128
        assert payload_bytes((), 8) == 8  # scalar payload


class TestGlobalSum:
    def test_sums_contributions_elementwise(self):
        machine = Machine(3)
        contributions = {rank: np.full(5, float(rank + 1)) for rank in range(3)}
        total = global_sum(machine, contributions, shape=(5,), itemsize=8)
        np.testing.assert_array_equal(total, np.full(5, 6.0))
        assert machine.network.collectives == 1
        assert machine.elapsed() > 0

    def test_estimate_mode_charges_without_data(self):
        machine = Machine(4)
        assert global_sum(machine, None, shape=(16,), itemsize=4) is None
        assert machine.network.collectives == 1
        assert machine.metrics[0].messages > 0

    def test_missing_contribution_rejected(self):
        machine = Machine(3)
        contributions = {0: np.zeros(4), 2: np.zeros(4)}
        with pytest.raises(CollectiveError, match="expected 3 contributions"):
            global_sum(machine, contributions, shape=(4,), itemsize=8)
        contributions = {0: np.zeros(4), 1: np.zeros(4), 3: np.zeros(4)}
        with pytest.raises(CollectiveError, match="missing contribution from rank 2"):
            global_sum(machine, contributions, shape=(4,), itemsize=8)

    def test_wrong_shape_rejected(self):
        machine = Machine(2)
        contributions = {0: np.zeros(4), 1: np.zeros(5)}
        with pytest.raises(CollectiveError, match="shape"):
            global_sum(machine, contributions, shape=(4,), itemsize=8)

    def test_synchronizes_clocks_before_charging(self):
        machine = Machine(2)
        machine.charge_compute(0, 1e9)  # rank 0 runs ahead
        ahead = machine.clocks[0].now
        global_sum(machine, None, shape=(4,), itemsize=8)
        # a blocking collective makes the slowest processor set the pace
        assert machine.clocks[1].now > ahead - 1e-12


class TestBlockReduction:
    """One block reduction per slab pair is bitwise the per-column global sums."""

    @staticmethod
    def _estimate_vm(nprocs=4):
        return VirtualMachine(nprocs, config=RunConfig(mode=ExecutionMode.ESTIMATE))

    @pytest.mark.parametrize("contribution_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("result_dtype", [np.float32, np.float64])
    def test_block_equals_per_column_global_sum(self, contribution_dtype, result_dtype):
        rng = np.random.default_rng(1997)
        nrows, ncols, itemsize = 37, 11, np.dtype(result_dtype).itemsize
        contributions = {
            rank: (rng.standard_normal((nrows, ncols)) * 10.0 ** rng.integers(-6, 6))
            .astype(contribution_dtype)
            for rank in range(4)
        }
        per_column_vm, block_vm = self._estimate_vm(), self._estimate_vm()
        # Uneven clocks, so the charge-only sums really synchronize.
        for vm in (per_column_vm, block_vm):
            vm.charge_compute(2, 1e6)

        expected = np.empty((nrows, ncols), dtype=result_dtype)
        for m in range(ncols):
            column = per_column_vm.comm.global_sum(
                {rank: part[:, m] for rank, part in contributions.items()},
                shape=(nrows,), itemsize=itemsize,
            )
            expected[:, m] = column.astype(result_dtype)

        actual = np.empty((nrows, ncols), dtype=result_dtype)
        actual[:, :] = block_vm.comm.reduce_block(contributions)
        for _ in range(ncols):
            assert block_vm.comm.global_sum(None, shape=(nrows,), itemsize=itemsize) is None

        assert actual.tobytes() == expected.tobytes()
        assert pickle.dumps(block_vm.snapshot_charges()) == \
            pickle.dumps(per_column_vm.snapshot_charges())

    def test_block_reduction_is_uncharged(self):
        vm = self._estimate_vm()
        before = pickle.dumps(vm.snapshot_charges())
        vm.comm.reduce_block({rank: np.ones((3, 2)) for rank in range(4)})
        assert pickle.dumps(vm.snapshot_charges()) == before

    def test_block_reduction_validates_contributions(self):
        vm = self._estimate_vm()
        with pytest.raises(CollectiveError, match="missing contribution from rank 3"):
            vm.comm.reduce_block({rank: np.ones(2) for rank in (0, 1, 2, 4)})
        with pytest.raises(CollectiveError, match="shape"):
            vm.comm.reduce_block({rank: np.ones(2 + (rank == 1)) for rank in range(4)})


class TestBroadcast:
    def test_returns_payload_and_charges_everyone(self):
        machine = Machine(4)
        data = np.arange(6, dtype=np.float64)
        out = broadcast(machine, data, shape=(6,), itemsize=8)
        np.testing.assert_array_equal(out, data)
        assert machine.network.collectives == 1
        assert all(machine.clocks[r].now > 0 for r in range(4))

    def test_estimate_mode_returns_none(self):
        machine = Machine(2)
        assert broadcast(machine, None, shape=(6,), itemsize=8) is None
        assert machine.network.collectives == 1

    def test_shape_mismatch_rejected(self):
        machine = Machine(2)
        with pytest.raises(CollectiveError, match="broadcast"):
            broadcast(machine, np.zeros(5), shape=(6,), itemsize=8)


class TestPointToPoint:
    def test_delivers_data_and_charges_both_endpoints(self):
        machine = Machine(3)
        payload = np.ones(8)
        out = point_to_point(machine, 0, 2, payload, nbytes=64)
        np.testing.assert_array_equal(out, payload)
        assert machine.metrics[0].messages == 1
        assert machine.metrics[2].messages == 1
        assert machine.metrics[1].messages == 0
        assert machine.clocks[1].now == 0.0

    def test_invalid_rank_rejected(self):
        from repro.exceptions import MachineConfigurationError

        machine = Machine(2)
        with pytest.raises(MachineConfigurationError):
            point_to_point(machine, 0, 5, None, nbytes=8)


# ---------------------------------------------------------------------------
# redistribution
# ---------------------------------------------------------------------------
class TestRedistributionCost:
    def test_per_processor_counts(self):
        desc = column_block_descriptor(32, 4)
        costs = redistribution_cost(desc)
        stripe = desc.nbytes // 4
        assert costs["read_bytes_per_proc"] == stripe
        assert costs["read_requests_per_proc"] == 1
        assert costs["alltoall_bytes_per_pair"] == stripe // 4
        assert costs["write_bytes_per_proc"] == desc.local_nbytes(0)
        assert costs["write_requests_per_proc"] == 1

    def test_arrival_layout_stripes_rows(self):
        layout = arrival_layout_rows(16, 4)
        assert layout.owner(0) == 0
        assert layout.owner(15) == 3


class TestRedistributeToDescriptor:
    def test_execute_round_trips_the_data(self, tmp_path):
        n, p = 16, 4
        desc = column_block_descriptor(n, p, name="r")
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((n, n)).astype(np.float32)
        with VirtualMachine(p, None, RunConfig(scratch_dir=tmp_path)) as vm:
            array = redistribute_to_descriptor(vm, desc, dense)
            np.testing.assert_array_equal(vm.to_dense(array), dense)
            stats = vm.io_statistics()
            assert stats["io_read_requests_per_proc"] == 1
            assert stats["io_write_requests_per_proc"] == 1
            assert vm.machine.network.collectives == 1

    def test_estimate_mode_charges_the_analytic_cost(self):
        n, p = 32, 4
        desc = column_block_descriptor(n, p, name="r")
        vm = VirtualMachine(p, None, RunConfig(mode=ExecutionMode.ESTIMATE))
        redistribute_to_descriptor(vm, desc)
        costs = redistribution_cost(desc)
        stats = vm.io_statistics()
        assert stats["bytes_read_per_proc"] == costs["read_bytes_per_proc"]
        assert stats["bytes_written_per_proc"] == costs["write_bytes_per_proc"]
        assert stats["io_requests_per_proc"] == 2  # one read + one write
        assert vm.machine.network.collectives == 1
        assert vm.elapsed() > 0

    def test_execute_mode_requires_arrival_data(self, tmp_path):
        desc = column_block_descriptor(8, 2, name="r")
        with VirtualMachine(2, None, RunConfig(scratch_dir=tmp_path)) as vm:
            with pytest.raises(RuntimeExecutionError, match="arrival data"):
                redistribute_to_descriptor(vm, desc)
