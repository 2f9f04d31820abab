"""Tests for shape-keyed mega-batched execution and gradients.

The contract under test everywhere: folding many same-shape circuits into
one stacked execution is a pure throughput change — every row carries the
same values as running its own circuit through the per-circuit batched
(and sequential) paths.
"""

import numpy as np
import pytest

import repro.backend.simulator as simulator_module
from repro.ansatz.random_pqc import RandomPQC, circuit_shape_key
from repro.backend.circuit import QuantumCircuit
from repro.backend.gradients import (
    batch_adjoint_gradient,
    batch_parameter_shift,
    megabatch_adjoint_gradient,
    megabatch_parameter_shift,
    parameter_shift,
)
from repro.backend.observables import total_z, zero_projector
from repro.backend.simulator import MegaBatchPlan, StatevectorSimulator
from repro.utils.rng import spawn_seeds


def _random_bucket(num_circuits=5, num_qubits=3, num_layers=4, seed=0):
    """Same-shape RandomPQC circuits plus per-circuit parameter stacks."""
    rng = np.random.default_rng(seed)
    circuits = [
        RandomPQC(num_qubits, num_layers, seed=int(rng.integers(2**31))).build()
        for _ in range(num_circuits)
    ]
    batches = [
        rng.normal(size=(3, circuits[0].num_parameters)) for _ in circuits
    ]
    return circuits, batches


class TestShapeKey:
    def test_same_config_same_key(self):
        a = RandomPQC(3, 4, seed=0)
        b = RandomPQC(3, 4, seed=99)
        assert a.shape_key == b.shape_key
        assert circuit_shape_key(a.build()) == circuit_shape_key(b.build())

    def test_different_width_differs(self):
        assert RandomPQC(3, 4, seed=0).shape_key != RandomPQC(4, 4, seed=0).shape_key

    def test_different_depth_differs(self):
        key_a = circuit_shape_key(RandomPQC(3, 4, seed=0).build())
        key_b = circuit_shape_key(RandomPQC(3, 5, seed=0).build())
        assert key_a != key_b

    def test_gate_choice_does_not_enter_key(self):
        rx = RandomPQC(2, 2, structure=[["RX", "RX"], ["RX", "RX"]]).build()
        rz = RandomPQC(2, 2, structure=[["RZ", "RY"], ["RY", "RZ"]]).build()
        assert circuit_shape_key(rx) == circuit_shape_key(rz)

    def test_bound_value_enters_key(self):
        a = QuantumCircuit(2).rx(0, value=0.5).cz(0, 1)
        b = QuantumCircuit(2).rx(0, value=0.7).cz(0, 1)
        assert circuit_shape_key(a) != circuit_shape_key(b)


class TestMegaBatchPlan:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MegaBatchPlan([])

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            MegaBatchPlan(
                [RandomPQC(2, 2, seed=0).build(), RandomPQC(3, 2, seed=0).build()]
            )

    def test_rejects_depth_mismatch(self):
        with pytest.raises(ValueError, match="operations"):
            MegaBatchPlan(
                [RandomPQC(2, 2, seed=0).build(), RandomPQC(2, 3, seed=0).build()]
            )

    def test_rejects_fixed_op_mismatch(self):
        a = QuantumCircuit(2).rx(0).cz(0, 1)
        b = QuantumCircuit(2).rx(0).cx(0, 1)
        with pytest.raises(ValueError, match="fixed operation"):
            MegaBatchPlan([a, b])

    def test_rejects_trainable_wire_mismatch(self):
        a = QuantumCircuit(2).rx(0)
        b = QuantumCircuit(2).rx(1)
        with pytest.raises(ValueError, match="trainable slot"):
            MegaBatchPlan([a, b])

    def test_slot_gate_tables(self):
        a = RandomPQC(2, 1, structure=[["RX", "RZ"]]).build()
        b = RandomPQC(2, 1, structure=[["RY", "RZ"]]).build()
        plan = MegaBatchPlan([a, b])
        gates, codes = plan.slot_gates[0]
        assert [g.name for g in gates] == ["RX", "RY"]
        assert codes.tolist() == [0, 1]
        gates, codes = plan.slot_gates[1]
        assert [g.name for g in gates] == ["RZ"]
        assert codes.tolist() == [0, 0]

    def test_entangler_chain_fuses(self):
        circuits = [RandomPQC(4, 3, seed=s).build() for s in (0, 1)]
        plan = MegaBatchPlan(circuits)
        fused = [step for step in plan.steps if step[0] == "fused_diag"]
        # One fused run per layer covering the whole CZ chain.
        assert len(fused) == 3
        for kind, lo, hi, diagonal in fused:
            assert hi - lo == 3  # 3 CZ pairs on 4 qubits
            assert diagonal.shape == (2**4,)
            assert np.all(np.isin(diagonal, [1.0 + 0j, -1.0 + 0j]))

    def test_non_unit_diagonal_not_fused(self):
        circuit = QuantumCircuit(1)
        circuit.rx(0)
        circuit.append("T", [0])  # diagonal but entries exp(i pi/4)
        plan = MegaBatchPlan([circuit, circuit.copy()])
        assert all(step[0] != "fused_diag" for step in plan.steps)


class TestRunMegabatch:
    def test_rows_match_run_batch(self):
        circuits, batches = _random_bucket()
        plan = MegaBatchPlan(circuits)
        simulator = StatevectorSimulator()
        params = np.concatenate(batches)
        rows = np.repeat(np.arange(len(circuits)), 3)
        states = simulator.run_megabatch(plan, params, rows)
        for s, batch in enumerate(batches):
            expected = simulator.run_batch(circuits[s], batch)
            assert np.array_equal(states[rows == s], expected), s

    def test_single_row_matches_run(self):
        circuits, batches = _random_bucket(num_circuits=2)
        plan = MegaBatchPlan(circuits)
        simulator = StatevectorSimulator()
        state = simulator.run_megabatch(plan, batches[1][:1], [1])
        expected = simulator.run(circuits[1], batches[1][0])
        assert np.array_equal(state[0], expected.data)

    def test_start_stop_composes(self):
        circuits, batches = _random_bucket(num_qubits=2, num_layers=3)
        plan = MegaBatchPlan(circuits)
        simulator = StatevectorSimulator()
        params = np.concatenate(batches)
        rows = np.repeat(np.arange(len(circuits)), 3)
        full = simulator.run_megabatch(plan, params, rows)
        # Split at a trainable position (never inside a fused run).
        split = max(
            pos for pos, op in enumerate(plan.template.operations)
            if op.is_trainable
        )
        prefix = simulator.run_megabatch(plan, params, rows, stop=split)
        resumed = simulator.run_megabatch(
            plan, params, rows, prefix, start=split
        )
        assert np.array_equal(full, resumed)

    def test_mid_fused_run_split_raises(self):
        circuits, _ = _random_bucket(num_qubits=4, num_layers=1)
        plan = MegaBatchPlan(circuits)
        fused = next(step for step in plan.steps if step[0] == "fused_diag")
        simulator = StatevectorSimulator()
        params = np.zeros((1, plan.num_parameters))
        with pytest.raises(ValueError, match="splits the fused"):
            simulator.run_megabatch(plan, params, [0], stop=fused[1] + 1)

    def test_rejects_bad_row_index(self):
        circuits, batches = _random_bucket(num_circuits=2)
        plan = MegaBatchPlan(circuits)
        with pytest.raises(ValueError, match="row_circuits"):
            StatevectorSimulator().run_megabatch(plan, batches[0], [0, 0, 2])

    def test_rejects_row_count_mismatch(self):
        circuits, batches = _random_bucket(num_circuits=2)
        plan = MegaBatchPlan(circuits)
        with pytest.raises(ValueError, match="row-circuit indices"):
            StatevectorSimulator().run_megabatch(plan, batches[0], [0])

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_chunk_boundaries(self, monkeypatch, delta):
        """Rows at/straddling the chunk boundary evolve identically."""
        circuits, _ = _random_bucket(num_circuits=3, num_qubits=3)
        plan = MegaBatchPlan(circuits)
        simulator = StatevectorSimulator()
        chunk_rows = 4
        # run_megabatch reads its budget from the backend.
        monkeypatch.setattr(
            simulator.backend, "chunk_bytes", 16 * 2**3 * chunk_rows
        )
        assert simulator_module.batch_chunk_rows(3, simulator.backend) == 4
        batch = 2 * chunk_rows + delta
        rng = np.random.default_rng(7)
        params = rng.normal(size=(batch, plan.num_parameters))
        rows = rng.integers(3, size=batch)
        calls = []
        run_rows = simulator._run_megabatch_data

        def counting(plan, params_batch, *args):
            calls.append(len(params_batch))
            return run_rows(plan, params_batch, *args)

        monkeypatch.setattr(simulator, "_run_megabatch_data", counting)
        chunked = simulator.run_megabatch(plan, params, rows)
        # The whole batch, then one call per chunk of <= chunk_rows rows.
        chunks = calls[1:]
        assert len(chunks) == -(-batch // chunk_rows) > 1
        assert sum(chunks) == batch and max(chunks) <= chunk_rows
        monkeypatch.undo()
        unchunked = simulator.run_megabatch(plan, params, rows)
        assert np.array_equal(chunked, unchunked)


def _two_kind_bucket():
    """Three 3-qubit circuits whose slots mix dense and diagonal gates."""
    structures = [
        [["RX", "RZ", "RY"], ["RZ", "RY", "RX"]],
        [["RZ", "RX", "RZ"], ["RY", "RZ", "RZ"]],
        [["RY", "RZ", "RX"], ["RX", "RX", "RY"]],
    ]
    return [RandomPQC(3, 2, structure=st).build() for st in structures]


def _controlled_bucket():
    """2-qubit parametric slots: CRX (dense) vs CRZ (diagonal) per circuit."""
    circuits = []
    for first, second in (("CRX", "CRZ"), ("CRZ", "CRX"), ("CRZ", "CRZ")):
        circuit = QuantumCircuit(3)
        for q in range(3):
            circuit.h(q)
            circuit.ry(q)
        circuit.append(first, [0, 1])
        circuit.append(second, [2, 1])
        circuit.rx(1)
        circuits.append(circuit)
    return circuits


def _assert_rows_match_run_batch(simulator, plan, params, rows):
    states = simulator.run_megabatch(plan, params, rows)
    for s in np.unique(rows):
        expected = simulator.run_batch(plan.circuits[s], params[rows == s])
        assert np.array_equal(states[rows == s], expected), s


@pytest.mark.parametrize("backend", ["numpy", "loopback"])
class TestSlotConformance:
    """Mixed dense/diagonal slots against per-circuit ``run_batch``."""

    @pytest.mark.parametrize("only", [0, 1])
    def test_stack_with_one_gate_kind(self, backend, only):
        # Circuit 0 draws RX at slot 0, circuit 1 draws RZ: a stack of
        # one circuit's rows meets a mixed plan with one kind only.
        circuits = _two_kind_bucket()
        plan = MegaBatchPlan(circuits)
        assert plan.slot_diagonal[0].tolist() == [False, True, False]
        rng = np.random.default_rng(3)
        params = rng.normal(size=(4, plan.num_parameters))
        rows = np.full(4, only)
        _assert_rows_match_run_batch(
            StatevectorSimulator(backend=backend), plan, params, rows
        )

    def test_chunks_with_one_gate_kind(self, backend, monkeypatch):
        circuits = _two_kind_bucket()
        plan = MegaBatchPlan(circuits)
        simulator = StatevectorSimulator(backend=backend)
        monkeypatch.setattr(simulator.backend, "chunk_bytes", 16 * 2**3 * 2)
        assert simulator_module.batch_chunk_rows(3, simulator.backend) == 2
        rng = np.random.default_rng(4)
        params = rng.normal(size=(6, plan.num_parameters))
        rows = np.array([0, 0, 1, 1, 2, 1])
        _assert_rows_match_run_batch(simulator, plan, params, rows)

    def test_two_qubit_parametric_slots(self, backend):
        plan = MegaBatchPlan(_controlled_bucket())
        pos = next(
            pos for pos, (gates, _) in plan.slot_gates.items()
            if len(gates) > 1
        )
        assert plan.slot_gates[pos][0][0].dim == 4
        rng = np.random.default_rng(5)
        params = rng.normal(size=(7, plan.num_parameters))
        rows = rng.integers(3, size=7)
        rows[:3] = [0, 1, 2]
        _assert_rows_match_run_batch(
            StatevectorSimulator(backend=backend), plan, params, rows
        )

    def test_single_row(self, backend):
        plan = MegaBatchPlan(_two_kind_bucket())
        params = np.random.default_rng(6).normal(size=(1, plan.num_parameters))
        _assert_rows_match_run_batch(
            StatevectorSimulator(backend=backend), plan, params, np.array([1])
        )

    def test_adjoint_two_qubit_slots(self, backend):
        circuits = _controlled_bucket()
        rng = np.random.default_rng(7)
        batches = [rng.normal(size=(2, circuits[0].num_parameters)) for _ in circuits]
        simulator = StatevectorSimulator(backend=backend)
        outs = megabatch_adjoint_gradient(
            circuits, total_z(3), batches, simulator=simulator
        )
        for circuit, batch, out in zip(circuits, batches, outs):
            expected = batch_adjoint_gradient(
                circuit, total_z(3), batch, simulator=simulator
            )
            assert np.array_equal(out, expected)

    def test_mixed_slots_copy_no_rows(self, backend, monkeypatch):
        simulator = StatevectorSimulator(backend=backend)
        calls = []
        cls = type(simulator.backend)
        for name in ("take_rows", "put_rows"):
            original = getattr(cls, name)

            def counting(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counting)
        circuits = _two_kind_bucket()
        plan = MegaBatchPlan(circuits)
        rng = np.random.default_rng(8)
        params = rng.normal(size=(6, plan.num_parameters))
        simulator.run_megabatch(plan, params, [0, 1, 2, 2, 1, 0])
        megabatch_adjoint_gradient(
            circuits, total_z(3), [params[:2], params[2:4], params[4:]],
            simulator=simulator, plan=plan,
        )
        assert calls == []


class TestMegabatchParameterShift:
    def test_matches_batch_parameter_shift(self):
        circuits, batches = _random_bucket()
        observable = zero_projector(3)
        simulator = StatevectorSimulator()
        outs = megabatch_parameter_shift(
            circuits, observable, batches, simulator=simulator
        )
        for circuit, batch, out in zip(circuits, batches, outs):
            expected = batch_parameter_shift(
                circuit, observable, batch, simulator=simulator
            )
            assert np.array_equal(out, expected)

    def test_matches_sequential_single_index(self):
        circuits, batches = _random_bucket(num_circuits=4)
        observable = total_z(3)
        simulator = StatevectorSimulator()
        index = circuits[0].num_parameters - 1
        outs = megabatch_parameter_shift(
            circuits, observable, batches, simulator=simulator,
            param_indices=[index],
        )
        for circuit, batch, out in zip(circuits, batches, outs):
            for m, row in enumerate(batch):
                expected = parameter_shift(
                    circuit, observable, row, simulator=simulator,
                    param_indices=[index],
                )
                assert np.array_equal(out[m], expected)

    def test_sampled_matches_per_circuit(self):
        circuits, batches = _random_bucket(num_circuits=3)
        observable = zero_projector(3)
        simulator = StatevectorSimulator()
        index = circuits[0].num_parameters - 1
        seeds = spawn_seeds(123, sum(b.shape[0] for b in batches))
        outs = megabatch_parameter_shift(
            circuits, observable, batches, simulator=simulator,
            param_indices=[index], shots=64, seed=list(seeds),
        )
        cursor = 0
        for circuit, batch, out in zip(circuits, batches, outs):
            row_seeds = seeds[cursor : cursor + batch.shape[0]]
            cursor += batch.shape[0]
            expected = batch_parameter_shift(
                circuit, observable, batch, simulator=simulator,
                param_indices=[index], shots=64, seed=list(row_seeds),
            )
            assert np.array_equal(out, expected)

    def test_empty_indices(self):
        circuits, batches = _random_bucket(num_circuits=2)
        outs = megabatch_parameter_shift(
            circuits, zero_projector(3), batches, param_indices=[]
        )
        assert [out.shape for out in outs] == [(3, 0), (3, 0)]

    def test_rejects_mismatched_stack_count(self):
        circuits, batches = _random_bucket(num_circuits=2)
        with pytest.raises(ValueError, match="parameter stacks"):
            megabatch_parameter_shift(circuits, zero_projector(3), batches[:1])


class TestMegabatchAdjoint:
    def test_matches_batch_adjoint(self):
        circuits, batches = _random_bucket()
        observable = total_z(3)
        simulator = StatevectorSimulator()
        outs = megabatch_adjoint_gradient(
            circuits, observable, batches, simulator=simulator
        )
        for circuit, batch, out in zip(circuits, batches, outs):
            expected = batch_adjoint_gradient(
                circuit, observable, batch, simulator=simulator
            )
            assert np.array_equal(out, expected), circuit

    def test_param_subset(self):
        circuits, batches = _random_bucket(num_circuits=3)
        observable = zero_projector(3)
        simulator = StatevectorSimulator()
        indices = [0, circuits[0].num_parameters - 1]
        outs = megabatch_adjoint_gradient(
            circuits, observable, batches, simulator=simulator,
            param_indices=indices,
        )
        for circuit, batch, out in zip(circuits, batches, outs):
            expected = batch_adjoint_gradient(
                circuit, observable, batch, simulator=simulator,
                param_indices=indices,
            )
            assert np.array_equal(out, expected)
