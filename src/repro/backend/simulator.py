"""Exact statevector simulator.

The simulator is stateless: each call takes a circuit plus parameter vector
and returns fresh results, so one instance can be shared freely across
experiments and threads.  The only construction-time choice is the array
backend (:mod:`repro.utils.array_api`) the kernels run on — host numpy by
default (bit-identical to the pre-backend code), or an accelerator
namespace (``"torch"``, ``"cupy"``) under the device-tolerance contract.
On a non-numpy backend the batched paths stay device-resident across
whole executions — states are staged in once, evolved on-namespace
through every operation (including a full mega-batch slot sweep), and
converted back to numpy only at result boundaries; sampling paths stage
to the host at a single ``to_numpy`` point before any generator draws.

Expectation values are analytic by default, matching the paper's PennyLane
setup.  Shot-based estimation is available as an opt-in via ``shots=`` for
studying sampling noise (an extension experiment).

Batched execution
-----------------
:meth:`StatevectorSimulator.run_batch` and
:meth:`StatevectorSimulator.expectation_batch` evolve a ``(B, 2**n)``
amplitude buffer through one circuit for ``B`` parameter vectors at once.
A one-circuit batch is a one-circuit mega-batch: it runs through the
stacked engine below with every row mapped to the circuit's cached
:class:`MegaBatchPlan` (:meth:`MegaBatchPlan.of`), so there is exactly one
stacked statevector engine.  Per row the arithmetic matches the
sequential :meth:`run` (``np.array_equal``), so batched evaluation is a
pure throughput optimization — the parameter-shift variance sweep uses it
to fold every method's draws and both shift terms into one call.

The sampled path is batched too: ``expectation_batch(..., shots=, seed=)``
applies each Pauli term's diagonalizing rotations once to the whole
``(B, 2**n)`` stack and then draws row-wise counts from one independent
generator per row (:func:`sample_expectation_rows`, the row sampler this
simulator shares with :class:`~repro.backend.ptm.PauliTransferSimulator`),
bit-identical per row to the sequential ``expectation(shots=...)`` given
the same spawned child seeds.

Mega-batched execution
----------------------
:meth:`StatevectorSimulator.run_megabatch` generalizes ``run_batch`` from
one circuit to a whole *shape bucket* of circuits: many circuits sharing a
gate-sequence shape (same wires, same parameter slots, same fixed layers —
see :func:`repro.ansatz.random_pqc.circuit_shape_key`) evolve together in
one ``(B, 2**n)`` stack.  A :class:`MegaBatchPlan` validates the bucket
once and stores, per trainable slot, the per-circuit gate table; at
execution time each slot applies a per-row dense stack and a per-row
diagonal stack to the whole amplitude stack, exact identity entries
filling each row's unused pass.  Because every kernel in this module is per-row
independent, row ``b`` remains equal to running its own circuit through
the sequential ``run`` — mega-batching, like batching, is a pure
throughput change.  This is what
lets the variance experiment fold a grid cell's hundreds of (structure,
method, shift-term) evaluations into a handful of hundred-row executions.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.circuit import QuantumCircuit
from repro.backend.gates import ParametricGate
from repro.backend.observables import Observable, PauliString, PauliSum, Projector
from repro.backend.statevector import (
    Statevector,
    apply_diagonal,
    apply_matrix,
    sample_basis_bits,
)
from repro.utils.array_api import (
    COMPLEX_DTYPE,
    FLOAT_DTYPE,
    ArrayBackend,
    array_backend_of,
    is_device_array,
    resolve_array_backend,
)
from repro.utils.rng import SeedLike, ensure_rng, resolve_rngs
from repro.utils.validation import check_positive_int

__all__ = [
    "StatevectorSimulator",
    "MegaBatchPlan",
    "apply_operation",
    "batch_chunk_rows",
    "sample_expectation_rows",
]

#: Target working-set size for one :meth:`StatevectorSimulator.run_batch`
#: chunk (amplitude buffer bytes).  8 MiB keeps a chunk L2/L3-resident on
#: typical hardware; results are independent of the chunking.
_RUN_BATCH_CHUNK_BYTES = 8 * 2**20


def batch_chunk_rows(
    num_qubits: int, backend: Optional[ArrayBackend] = None
) -> int:
    """Rows per memory-aware batch chunk at this register width.

    The single source of the chunking policy shared by
    :meth:`StatevectorSimulator.run_megabatch` (and so ``run_batch``),
    :func:`sample_expectation_rows`, and the benchmarks that report
    effective fold sizes.  The budget is
    per-backend (``backend.chunk_bytes``): the numpy default keeps a
    chunk cache-resident, accelerator backends use a much larger budget
    so kernel-launch overhead amortizes over the biggest resident batch.
    """
    chunk_bytes = (
        _RUN_BATCH_CHUNK_BYTES if backend is None else backend.chunk_bytes
    )
    return max(1, chunk_bytes // (16 * 2**num_qubits))


def _check_observable_width(observable: Observable, num_qubits: int) -> None:
    if observable.num_qubits != num_qubits:
        raise ValueError(
            f"observable acts on {observable.num_qubits} qubits, "
            f"states have {num_qubits}"
        )


def sample_expectation_rows(
    states: np.ndarray,
    observable: Observable,
    shots: int,
    rngs: Sequence[np.random.Generator],
    num_qubits: int,
    probabilities: Callable[[np.ndarray], np.ndarray],
    rotate: Callable[[np.ndarray, np.ndarray, int], np.ndarray],
    readout_error: Optional[float] = None,
) -> np.ndarray:
    """Shot-estimated ``<O>`` for each row of a state stack.

    The row sampler of both simulators.  ``states`` rows are
    ``num_qubits``-qubit states in the simulator's encoding:
    ``probabilities(rows)`` gives their ``(rows, 2**n)`` outcome
    distributions and ``rotate(rows, matrix, qubit)`` applies a one-qubit
    unitary (a Pauli term's basis change).  Rotations and probability
    matrices are computed once per row block; the draws then walk the rows
    in order, consuming ``rngs[b]`` for row ``b`` term by term exactly as
    the sequential ``expectation(shots=...)`` path would, so a generator
    shared by consecutive rows stays sequentially consistent.
    ``readout_error`` is passed to :func:`sample_basis_bits`.
    """
    check_positive_int(shots, "shots")
    # Sampling is host-side by contract: device stacks cross to numpy at
    # this single staging point, before any generator draw.
    if is_device_array(states):
        states = array_backend_of(states).to_numpy(states)
    states = np.asarray(states)
    if len(rngs) != states.shape[0]:
        raise ValueError(f"got {len(rngs)} generators for {states.shape[0]} rows")
    _check_observable_width(observable, num_qubits)
    if isinstance(observable, (Projector, PauliString)):
        terms = [observable]
    elif isinstance(observable, PauliSum):
        terms = observable.terms
    else:
        raise TypeError(
            "shot-based estimation is not implemented for "
            f"{type(observable).__name__}"
        )
    # Row blocks bound the per-term probability matrices; rows still walk
    # in global order, so blocking is invisible to the draws.
    block = batch_chunk_rows(int(states.shape[1]).bit_length() - 1)
    estimates = np.empty(states.shape[0], dtype=FLOAT_DTYPE)
    for start in range(0, states.shape[0], block):
        rows = states[start : start + block]
        # One (probabilities, score) stage per sequential draw; identity
        # terms are a constant and consume no randomness.
        stages = []
        for term in terms:
            if isinstance(term, Projector):
                target = np.asarray(term.bits)
                stages.append(
                    (probabilities(rows), lambda bits: np.all(bits == target, axis=1))
                )
            elif term.is_identity:
                stages.append((None, term.coefficient))
            else:
                rotated = rows
                for matrix, qubit in term.rotation_matrices():
                    rotated = rotate(rotated, matrix, qubit)
                stages.append((probabilities(rotated), term.eigenvalues_of_bits))
        for offset in range(rows.shape[0]):
            rng = rngs[start + offset]
            total = 0
            for probs, score in stages:
                if probs is None:
                    total += score
                    continue
                bits = sample_basis_bits(
                    probs[offset], shots, rng, num_qubits, readout_error=readout_error
                )
                total += float(np.mean(score(bits)))
            estimates[start + offset] = float(total)
    return estimates


def apply_operation(data, op, params, num_qubits, backend=None):
    """Apply one circuit operation to a flat buffer or a ``(B, 2**n)`` stack.

    Dispatches diagonal gates (CZ, RZ, PHASE, ...) to the cheaper
    elementwise kernel; everything else goes through the general
    tensor-contraction kernel.  ``backend`` is forwarded to the kernels
    (operand matrices are built host-side and staged there).
    """
    matrix = op.matrix(params)
    if getattr(op.gate, "is_diagonal", False):
        return apply_diagonal(
            data, np.diagonal(matrix), op.qubits, num_qubits, backend=backend
        )
    return apply_matrix(data, matrix, op.qubits, num_qubits, backend=backend)


#: Diagonal entries that multiply amplitudes exactly (components 0/±1),
#: making fused products of such diagonals value-identical to sequential
#: application — the condition for entangler-chain fusion.
_EXACT_UNITS = (1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j)


# Plan compilation memos.  ``Operation`` is a frozen, hashable dataclass
# and skeleton-built circuits share their fixed operations, so a fresh
# circuit (or a whole bucket of them) compiles against warm entries
# instead of rebuilding matrices per plan.  Both tables are bounded.
@functools.lru_cache(maxsize=1024)
def _fusable_diagonal(op) -> bool:
    """True for a fixed diagonal operation whose entries are exact units."""
    if not getattr(op.gate, "is_diagonal", False):
        return False
    return bool(np.all(np.isin(np.diagonal(op.matrix(None)), _EXACT_UNITS)))


@functools.lru_cache(maxsize=64)
def _fused_diagonal(ops: tuple, num_qubits: int) -> np.ndarray:
    """Read-only full-space product of a run of fusable diagonals."""
    fused = np.ones(2**num_qubits, dtype=COMPLEX_DTYPE)
    for op in ops:
        fused = apply_diagonal(
            fused, np.diagonal(op.matrix(None)), op.qubits, num_qubits
        )
    fused.flags.writeable = False
    return fused


class MegaBatchPlan:
    """Validated execution plan for a *shape bucket* of circuits.

    Circuits share a shape when their operation sequences agree on
    everything except which parametric gate occupies each trainable slot
    (:func:`repro.ansatz.random_pqc.circuit_shape_key`).  The plan checks
    that once, up front, and compiles the shared skeleton into an
    execution program:

    * each trainable slot carries the per-circuit gate table — the
      "per-row gate-parameter table" that lets
      :meth:`StatevectorSimulator.run_megabatch` apply different gates
      and angles to different rows of a single amplitude stack;
    * maximal runs of fixed diagonal operations whose entries are exact
      units (components 0/±1 — e.g. a CZ entangling chain) are fused
      into one precomputed full-space diagonal, applied in a single
      elementwise pass.  Multiplying by such units is exact, so the
      fused pass is value-identical to applying the run gate by gate
      (sign-of-zero on exactly-zero amplitudes is the only bit that may
      differ — invisible to ``np.array_equal``, the library's equality).

    Parameters
    ----------
    circuits:
        Non-empty sequence of same-shape circuits.  Index positions in
        this sequence are the circuit indices ``row_circuits`` refers to
        at execution time.

    Raises
    ------
    ValueError
        If the circuits do not share a shape (mismatched wires, parameter
        slots, or fixed operations), or the sequence is empty.
    """

    def __init__(self, circuits: Sequence[QuantumCircuit]):
        circuits = list(circuits)
        if not circuits:
            raise ValueError("MegaBatchPlan needs at least one circuit")
        template = circuits[0]
        for index, other in enumerate(circuits[1:], start=1):
            self._check_same_shape(template, other, index)
        self.circuits = circuits
        self.template = template
        self.num_qubits = template.num_qubits
        self.num_parameters = template.num_parameters
        # Per trainable position: the distinct gates (first-appearance
        # order) plus a per-circuit code array selecting among them.
        # Registry gates are singletons, so keying by name is keying by
        # object.
        self.slot_gates: Dict[int, Tuple[List[ParametricGate], np.ndarray]] = {}
        #: Per trainable position: boolean per-code table marking diagonal
        #: gates.  One fancy index through it tells slot execution which
        #: rows take the full-stack diagonal pass and which the dense one.
        self.slot_diagonal: Dict[int, np.ndarray] = {}
        # Most slots hold one gate on every circuit; they share one code
        # array and one flag table per diagonal-ness (plan compile runs
        # once per fresh circuit, so its per-slot cost matters).
        same_codes = np.zeros(len(circuits), dtype=np.intp)
        one_flag = {False: np.array([False]), True: np.array([True])}
        for pos, op in enumerate(template.operations):
            if not op.is_trainable:
                continue
            column = [circuit.operations[pos].gate for circuit in circuits]
            distinct: Dict[str, ParametricGate] = {}
            for gate in column:
                distinct.setdefault(gate.name, gate)
            gates = list(distinct.values())
            if len(gates) == 1:
                codes = same_codes
                flags = one_flag[bool(getattr(gates[0], "is_diagonal", False))]
            else:
                code_of = {name: code for code, name in enumerate(distinct)}
                codes = np.array([code_of[g.name] for g in column], dtype=np.intp)
                flags = np.array(
                    [bool(getattr(gate, "is_diagonal", False)) for gate in gates]
                )
            self.slot_gates[pos] = (gates, codes)
            self.slot_diagonal[pos] = flags
        self.steps = self._compile_steps()

    @classmethod
    def of(cls, circuit: QuantumCircuit) -> "MegaBatchPlan":
        """The one-circuit plan of ``circuit``, cached on the circuit and
        rebuilt, like :meth:`QuantumCircuit.static_matrices`, whenever its
        operation sequence no longer compares equal (appends, edits)."""
        key = tuple(circuit.operations)
        cached = circuit._megabatch_plan
        if cached is None or cached[0] != key:
            cached = circuit._megabatch_plan = (key, cls([circuit]))
        return cached[1]

    @property
    def num_circuits(self) -> int:
        return len(self.circuits)

    def slot_matrices(
        self,
        pos: int,
        rows: np.ndarray,
        thetas: np.ndarray,
        derivative: bool = False,
    ) -> np.ndarray:
        """Per-row ``(B, 2**k, 2**k)`` host stack for trainable slot ``pos``.

        Row ``b`` holds the matrix (``derivative``: its angle derivative)
        of the gate circuit ``rows[b]`` drew here, at ``thetas[b]``, built
        by one ``matrix_batch``/``derivative_batch`` call per distinct
        gate.  Freshly allocated: callers may modify it.
        """
        gates, codes = self.slot_gates[pos]
        build = "derivative_batch" if derivative else "matrix_batch"
        if len(gates) == 1:
            return getattr(gates[0], build)(thetas)
        row_codes = codes[rows]
        dim = gates[0].dim
        stack = np.empty((len(thetas), dim, dim), dtype=COMPLEX_DTYPE)
        for code, gate in enumerate(gates):
            sel = np.flatnonzero(row_codes == code)
            if sel.size:
                stack[sel] = getattr(gate, build)(thetas[sel])
        return stack

    def _compile_steps(self) -> "List[tuple]":
        """Compile the template into ``(kind, lo, hi, payload)`` steps.

        ``[lo, hi)`` is the operation-position span each step covers, so
        :meth:`StatevectorSimulator.run_megabatch` can execute any
        ``[start, stop)`` slice of the circuit.  Kinds:

        * ``"slot"`` — one trainable operation (payload: the operation);
        * ``"op"`` — one fixed/bound operation (payload: the operation);
        * ``"fused_diag"`` — a maximal run of consecutive fixed diagonal
          operations with exact-unit entries, collapsed into one
          precomputed ``(2**n,)`` diagonal (payload).
        """
        ops = self.template.operations
        steps: "List[tuple]" = []
        pos = 0
        while pos < len(ops):
            op = ops[pos]
            if op.is_trainable:
                steps.append(("slot", pos, pos + 1, op))
                pos += 1
                continue
            if _fusable_diagonal(op):
                stop = pos + 1
                while (
                    stop < len(ops)
                    and not ops[stop].is_trainable
                    and _fusable_diagonal(ops[stop])
                ):
                    stop += 1
                fused = _fused_diagonal(tuple(ops[pos:stop]), self.num_qubits)
                steps.append(("fused_diag", pos, stop, fused))
                pos = stop
                continue
            steps.append(("op", pos, pos + 1, op))
            pos += 1
        return steps

    @staticmethod
    def _check_same_shape(
        template: QuantumCircuit, other: QuantumCircuit, index: int
    ) -> None:
        if other.num_qubits != template.num_qubits:
            raise ValueError(
                f"circuit {index} has {other.num_qubits} qubits, "
                f"plan template has {template.num_qubits}"
            )
        if len(other.operations) != len(template.operations):
            raise ValueError(
                f"circuit {index} has {len(other.operations)} operations, "
                f"plan template has {len(template.operations)}"
            )
        for pos, (op_a, op_b) in enumerate(
            zip(template.operations, other.operations)
        ):
            if op_a is op_b:
                # Skeleton-built circuits share fixed-operation objects.
                continue
            if op_a.is_trainable != op_b.is_trainable:
                raise ValueError(
                    f"circuit {index}, operation {pos}: trainable/"
                    "non-trainable mismatch with the plan template"
                )
            if op_a.is_trainable:
                if (
                    op_a.qubits != op_b.qubits
                    or op_a.param_index != op_b.param_index
                    or not isinstance(op_b.gate, ParametricGate)
                ):
                    raise ValueError(
                        f"circuit {index}, operation {pos}: trainable slot "
                        f"differs from the plan template (wires "
                        f"{op_b.qubits} vs {op_a.qubits}, parameter "
                        f"{op_b.param_index} vs {op_a.param_index})"
                    )
            elif op_a != op_b:
                # Fixed and bound-parameter operations are baked into the
                # executed matrices, so they must match exactly.
                raise ValueError(
                    f"circuit {index}, operation {pos}: fixed operation "
                    f"{op_b.gate.name} on {op_b.qubits} differs from the "
                    f"plan template's {op_a.gate.name} on {op_a.qubits}"
                )


class StatevectorSimulator:
    """Runs :class:`QuantumCircuit` objects on exact statevectors.

    Parameters
    ----------
    backend:
        Array backend the kernels run on — a name (``"numpy"``,
        ``"torch"``, ``"torch:cuda:0"``, ``"cupy"``, ...), an
        :class:`~repro.utils.array_api.ArrayBackend` instance, or
        ``None`` for numpy.  The numpy default executes the exact
        pre-backend kernels bit for bit; other namespaces are held to
        the device-tolerance contract (see :mod:`repro.utils.array_api`).
        The handle is immutable, so a simulator is still freely
        shareable across experiments and threads.
    """

    def __init__(
        self, backend: "Optional[str | ArrayBackend]" = None
    ) -> None:
        self.backend = resolve_array_backend(backend)

    def run(
        self,
        circuit: QuantumCircuit,
        params: Optional[Sequence[float]] = None,
        initial_state: Optional[Statevector] = None,
    ) -> Statevector:
        """Evolve the initial state (default ``|0...0>``) through ``circuit``.

        Parameters
        ----------
        circuit:
            The circuit to execute.
        params:
            Trainable parameter vector; required iff the circuit has
            trainable operations.
        initial_state:
            Starting state; defaults to ``|0...0>``.
        """
        param_array = self._coerce_params(circuit, params)
        backend = self.backend
        if initial_state is None:
            data = np.zeros(2**circuit.num_qubits, dtype=COMPLEX_DTYPE)
            data[0] = 1.0
        else:
            if initial_state.num_qubits != circuit.num_qubits:
                raise ValueError(
                    f"initial state has {initial_state.num_qubits} qubits, "
                    f"circuit needs {circuit.num_qubits}"
                )
            data = initial_state.data.copy()
        if not backend.is_numpy:
            data = backend.asarray(data, dtype=backend.complex_dtype)
        for op in circuit.operations:
            data = apply_operation(
                data, op, param_array, circuit.num_qubits, backend=backend
            )
        if not backend.is_numpy:
            data = backend.to_numpy(data)
        return Statevector(data, validate=False)

    def run_batch(
        self,
        circuit: QuantumCircuit,
        params_batch: Sequence[Sequence[float]],
        initial_state: Optional[Statevector] = None,
    ) -> np.ndarray:
        """Evolve ``B`` parameter vectors through ``circuit`` at once.

        A one-circuit mega-batch: every row runs through
        :meth:`run_megabatch` on the circuit's cached one-circuit plan
        (:meth:`MegaBatchPlan.of`), so fixed operations share one matrix
        across rows, fused entangler runs apply one precomputed diagonal,
        and each trainable gate applies a per-row matrix stack.

        Parameters
        ----------
        circuit:
            The circuit to execute.
        params_batch:
            ``(B, num_parameters)`` array — one trainable parameter vector
            per row.
        initial_state:
            Starting state shared by every row; defaults to ``|0...0>``.

        Returns
        -------
        numpy.ndarray
            ``(B, 2**num_qubits)`` complex amplitudes; row ``b`` is
            ``np.array_equal`` to ``self.run(circuit, params_batch[b]).data``
            (only the sign of exactly-zero amplitudes may differ under fused
            diagonals — see :class:`MegaBatchPlan`).
        """
        data = self._run_batch_data(circuit, params_batch, initial_state)
        backend = self.backend
        return data if backend.is_numpy else backend.to_numpy(data)

    def _run_batch_data(
        self,
        circuit: QuantumCircuit,
        params_batch: Sequence[Sequence[float]],
        initial_state: Optional[Statevector] = None,
    ):
        """:meth:`run_batch` without the result-boundary conversion.

        Returns the ``(B, 2**n)`` amplitude stack on the simulator's
        array backend (a plain numpy array for the numpy backend, a
        device-resident array otherwise).  Internal substrate for the
        gradient engines, which keep states on-namespace across the
        forward pass, adjoint sweep, and reductions.
        """
        batch_array = self._coerce_params_batch(circuit, params_batch)
        rows = np.zeros(batch_array.shape[0], dtype=np.intp)
        return self._run_megabatch_data(
            MegaBatchPlan.of(circuit), batch_array, rows, initial_state
        )

    def run_megabatch(
        self,
        plan: MegaBatchPlan,
        params_batch: Sequence[Sequence[float]],
        row_circuits: Sequence[int],
        initial_state: "Optional[Statevector | np.ndarray]" = None,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> np.ndarray:
        """Evolve rows of many same-shape circuits in one amplitude stack.

        The mega-batched generalization of :meth:`run_batch`: rather than
        ``B`` parameter vectors of *one* circuit, the stack holds rows of
        every circuit in a :class:`MegaBatchPlan`'s shape bucket.  Fixed
        operations apply one shared matrix to all rows (fused entangler
        runs apply their precomputed diagonal in one elementwise pass);
        each trainable slot runs at most two passes over the whole stack
        — a dense pass with a per-row matrix stack (identity on
        diagonal-gate rows) and a diagonal pass with a per-row diagonal
        stack (exact ones on dense-gate rows) — so the drawn gate, like
        the angle, is row data and no rows are gathered or scattered.
        Rows evolve independently, and the pass a row's gate does not
        use leaves it exactly unchanged, so row
        ``b`` is ``np.array_equal`` to ``self.run(plan.circuits[
        row_circuits[b]], params_batch[b]).data`` (only the sign of
        exactly-zero amplitudes may differ under fused diagonals — see
        :class:`MegaBatchPlan`): mega-batching is a pure throughput
        change, the contract the variance engine's shape-bucket fold
        relies on.

        Parameters
        ----------
        plan:
            The validated shape bucket.
        params_batch:
            ``(B, num_parameters)`` array — one parameter vector per row.
        row_circuits:
            Length-``B`` index array mapping each row to its circuit in
            ``plan.circuits``.
        initial_state:
            Starting state: ``None`` for ``|0...0>``, a shared
            :class:`Statevector`, or a per-row ``(B, 2**n)`` amplitude
            stack (e.g. a previous ``run_megabatch(stop=...)`` result —
            the substrate of shared-prefix shift-rule evaluation).
        start, stop:
            Execute only operations ``[start, stop)`` (default: all).
            Boundaries must not split a fused diagonal run; the
            shift-rule engines always split at trainable operations, who
            are never inside one.

        Returns
        -------
        numpy.ndarray
            ``(B, 2**num_qubits)`` complex amplitudes.
        """
        data = self._run_megabatch_data(
            plan, params_batch, row_circuits, initial_state, start, stop
        )
        backend = self.backend
        return data if backend.is_numpy else backend.to_numpy(data)

    def _run_megabatch_data(
        self,
        plan: MegaBatchPlan,
        params_batch: Sequence[Sequence[float]],
        row_circuits: Sequence[int],
        initial_state=None,
        start: int = 0,
        stop: Optional[int] = None,
    ):
        """:meth:`run_megabatch` without the result-boundary conversion.

        Returns the ``(B, 2**n)`` stack on the simulator's array backend
        and accepts a per-row ``initial_state`` already resident there —
        the substrate that keeps a whole mega-batch slot sweep (and the
        shift-rule engines' prefix/suffix resumptions) device-resident
        end to end.  The stack is never mutated in place, so a device
        ``initial_state`` may be aliased rather than copied.
        """
        batch_array = self._coerce_params_batch(plan.template, params_batch)
        rows = np.asarray(row_circuits, dtype=np.intp).reshape(-1)
        if rows.shape[0] != batch_array.shape[0]:
            raise ValueError(
                f"got {rows.shape[0]} row-circuit indices for "
                f"{batch_array.shape[0]} parameter rows"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= plan.num_circuits):
            raise ValueError(
                f"row_circuits must index into the plan's "
                f"{plan.num_circuits} circuits"
            )
        num_qubits = plan.num_qubits
        batch = batch_array.shape[0]
        num_ops = len(plan.template.operations)
        stop = num_ops if stop is None else int(stop)
        start = int(start)
        if not 0 <= start <= stop <= num_ops:
            raise ValueError(
                f"invalid operation range [{start}, {stop}) for a circuit "
                f"with {num_ops} operations"
            )
        backend = self.backend
        per_row_initial = initial_state is not None and not isinstance(
            initial_state, Statevector
        )
        if per_row_initial and tuple(initial_state.shape) != (
            batch,
            2**num_qubits,
        ):
            raise ValueError(
                f"per-row initial states must be (batch, {2**num_qubits}), "
                f"got shape {tuple(initial_state.shape)}"
            )
        # Large stacks are evolved in row chunks sized to keep the
        # amplitude buffer cache-resident (numpy) or launch-efficient
        # (device backends): every gate streams the whole buffer through
        # memory, so an oversized batch trades the batching win back for
        # DRAM bandwidth.  Rows are independent, so chunk boundaries are
        # invisible to the results.
        chunk = batch_chunk_rows(num_qubits, backend)
        if batch > chunk:
            return backend.concatenate(
                [
                    self._run_megabatch_data(
                        plan,
                        batch_array[first : first + chunk],
                        rows[first : first + chunk],
                        initial_state[first : first + chunk]
                        if per_row_initial
                        else initial_state,
                        start,
                        stop,
                    )
                    for first in range(0, batch, chunk)
                ]
            )
        if initial_state is None:
            if backend.is_numpy:
                data = np.zeros((batch, 2**num_qubits), dtype=COMPLEX_DTYPE)
            else:
                data = backend.zeros(
                    (batch, 2**num_qubits), backend.complex_dtype
                )
            data[:, 0] = 1.0
        elif per_row_initial:
            if backend.is_numpy:
                data = np.array(initial_state, dtype=COMPLEX_DTYPE)
            else:
                data = backend.asarray(
                    initial_state, dtype=backend.complex_dtype
                )
        else:
            if initial_state.num_qubits != num_qubits:
                raise ValueError(
                    f"initial state has {initial_state.num_qubits} qubits, "
                    f"circuit needs {num_qubits}"
                )
            if backend.is_numpy:
                data = np.tile(initial_state.data, (batch, 1))
            else:
                data = backend.tile_rows(
                    backend.asarray(
                        initial_state.data, dtype=backend.complex_dtype
                    ),
                    batch,
                )
        for kind, lo, hi, payload in plan.steps:
            if hi <= start or lo >= stop:
                continue
            if lo < start or hi > stop:
                raise ValueError(
                    f"operation range [{start}, {stop}) splits the fused "
                    f"diagonal run covering operations [{lo}, {hi})"
                )
            if kind == "op":
                data = apply_operation(
                    data, payload, None, num_qubits, backend=backend
                )
            elif kind == "fused_diag":
                if backend.is_numpy:
                    data = data * payload
                else:
                    data = data * backend.asarray(
                        payload, dtype=backend.complex_dtype
                    )
            else:
                data = self._apply_megabatch_slot(
                    plan,
                    lo,
                    payload,
                    data,
                    batch_array,
                    rows,
                    num_qubits,
                    backend,
                )
        return data

    @staticmethod
    def _apply_megabatch_slot(
        plan: MegaBatchPlan,
        pos: int,
        op,
        data: np.ndarray,
        batch_array: np.ndarray,
        rows: np.ndarray,
        num_qubits: int,
        backend: ArrayBackend,
    ) -> np.ndarray:
        """Apply one trainable slot with per-row gates to the stack.

        The slot runs as at most two passes over the *whole* stack, with
        no row gather or scatter: one :func:`apply_matrix` whose per-row
        operand holds each dense-gate row's matrix and the identity on
        diagonal-gate rows, then one :func:`apply_diagonal` whose per-row
        diagonal holds each diagonal-gate row's entries and exact ones on
        dense-gate rows.  A pass that no row of this stack needs is
        skipped.

        The passes are exact on the rows they leave alone: ``1*x + 0*y``
        is exactly ``x`` under IEEE arithmetic in any summation order,
        with or without FMA, and so is ``x*(1+0j)``.  Every row therefore
        carries the values its own gate's kernel gives it; only the sign
        of an exactly-zero amplitude may differ (as under fused
        diagonals, see :class:`MegaBatchPlan`), which ``np.array_equal``
        ignores.  A one-gate slot takes only its gate's pass, with no
        identity padding.  Operand stacks are assembled host-side and
        staged to the backend by the kernel in one copy per pass.
        """
        gates, codes = plan.slot_gates[pos]
        thetas = batch_array[:, op.param_index]
        matrices = plan.slot_matrices(pos, rows, thetas)
        if len(gates) == 1:
            if plan.slot_diagonal[pos][0]:
                phases = np.diagonal(matrices, axis1=-2, axis2=-1)
                return apply_diagonal(
                    data, phases, op.qubits, num_qubits, backend=backend
                )
            return apply_matrix(data, matrices, op.qubits, num_qubits, backend=backend)
        row_is_diagonal = plan.slot_diagonal[pos][codes[rows]]
        phases = np.where(
            row_is_diagonal[:, None], np.diagonal(matrices, axis1=-2, axis2=-1), 1.0
        )
        if not row_is_diagonal.all():
            matrices[row_is_diagonal] = np.eye(gates[0].dim)
            data = apply_matrix(
                data, matrices, op.qubits, num_qubits, backend=backend
            )
        if row_is_diagonal.any():
            data = apply_diagonal(
                data, phases, op.qubits, num_qubits, backend=backend
            )
        return data

    def expectation(
        self,
        circuit: QuantumCircuit,
        observable: Observable,
        params: Optional[Sequence[float]] = None,
        initial_state: Optional[Statevector] = None,
        shots: Optional[int] = None,
        seed: SeedLike = None,
    ) -> float:
        """``<psi(params)|O|psi(params)>``, exact or shot-estimated."""
        state = self.run(circuit, params, initial_state)
        if shots is None:
            return observable.expectation(state)
        return self._sampled_expectation(state, observable, shots, seed)

    def expectation_batch(
        self,
        circuit: QuantumCircuit,
        observable: Observable,
        params_batch: Sequence[Sequence[float]],
        initial_state: Optional[Statevector] = None,
        shots: Optional[int] = None,
        seed: "SeedLike | Sequence[SeedLike]" = None,
    ) -> np.ndarray:
        """``<O>`` for every row of ``params_batch`` in one call.

        Analytic by default; with ``shots=`` every row is estimated from
        that many measurement samples instead.  The sampled path runs one
        batched execution, applies each Pauli term's diagonalizing
        rotations once to the whole ``(B, 2**n)`` stack, and then draws
        row-wise counts — one independent generator per row.

        Parameters
        ----------
        circuit, observable, params_batch, initial_state:
            As in :meth:`expectation`.
        shots:
            When given, sample-estimate each row's expectation.
        seed:
            Sampled path only: a sequence of ``B`` per-row
            seeds/generators (honoured element-wise), or any single
            :data:`~repro.utils.rng.SeedLike` from which ``B`` children
            are spawned via :func:`repro.utils.rng.spawn_seeds`.

        Entry ``b`` is bit-identical to ``self.expectation(circuit,
        observable, params_batch[b])`` analytically, and to
        ``self.expectation(..., shots=shots, seed=<row b's seed>)`` in
        sampled mode — the contract the batched shot-based experiment
        paths rely on.
        """
        states = self._run_batch_data(circuit, params_batch, initial_state)
        if shots is None:
            # The observable layer is backend-aware: device stacks reduce
            # on-namespace and only the (B,) float result crosses back.
            return observable.expectation_batch(states)
        rngs = resolve_rngs(seed, states.shape[0])
        return self.sampled_expectation_rows(states, observable, shots, rngs)

    def sampled_expectation_rows(
        self,
        states: np.ndarray,
        observable: Observable,
        shots: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Shot-estimated ``<O>`` for each row of a ``(B, 2**n)`` stack.

        :func:`sample_expectation_rows` on amplitude rows: row ``b`` is
        bit-identical to ``self._sampled_expectation(Statevector(
        states[b]), observable, shots, rngs[b])``.
        """
        num_qubits = int(states.shape[-1]).bit_length() - 1
        return sample_expectation_rows(
            states,
            observable,
            shots,
            rngs,
            num_qubits,
            probabilities=lambda rows: np.abs(rows) ** 2,
            rotate=lambda rows, matrix, qubit: apply_matrix(
                rows, matrix, [qubit], num_qubits
            ),
        )

    def probabilities(
        self,
        circuit: QuantumCircuit,
        params: Optional[Sequence[float]] = None,
        initial_state: Optional[Statevector] = None,
    ) -> np.ndarray:
        """Computational-basis outcome distribution after the circuit."""
        return self.run(circuit, params, initial_state).probabilities()

    def sample(
        self,
        circuit: QuantumCircuit,
        shots: int,
        params: Optional[Sequence[float]] = None,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Sample ``(shots, num_qubits)`` measurement outcomes."""
        return self.run(circuit, params).sample(shots, seed=seed)

    def unitary(
        self, circuit: QuantumCircuit, params: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """Dense unitary of the whole circuit (tests / small systems only)."""
        dim = 2**circuit.num_qubits
        param_array = self._coerce_params(circuit, params)
        columns = np.eye(dim, dtype=COMPLEX_DTYPE)
        out = np.empty((dim, dim), dtype=COMPLEX_DTYPE)
        for col in range(dim):
            data = columns[:, col].copy()
            for op in circuit.operations:
                data = apply_operation(data, op, param_array, circuit.num_qubits)
            out[:, col] = data
        return out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_params(
        circuit: QuantumCircuit, params: Optional[Sequence[float]]
    ) -> Optional[np.ndarray]:
        if params is None:
            if circuit.num_parameters:
                raise ValueError(
                    f"circuit has {circuit.num_parameters} trainable parameters "
                    "but none were supplied"
                )
            return None
        array = np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1)
        if array.size != circuit.num_parameters:
            raise ValueError(
                f"expected {circuit.num_parameters} parameters, got {array.size}"
            )
        if not np.all(np.isfinite(array)):
            raise ValueError(
                "parameters contain NaN or infinity; an optimizer has "
                "probably diverged"
            )
        return array

    @staticmethod
    def _coerce_params_batch(
        circuit: QuantumCircuit, params_batch: Sequence[Sequence[float]]
    ) -> np.ndarray:
        array = np.asarray(params_batch, dtype=FLOAT_DTYPE)
        if array.ndim != 2:
            raise ValueError(
                f"params_batch must be 2-D (batch, num_parameters), "
                f"got shape {array.shape}"
            )
        if array.shape[1] != circuit.num_parameters:
            raise ValueError(
                f"expected {circuit.num_parameters} parameters per row, "
                f"got {array.shape[1]}"
            )
        if array.shape[0] == 0:
            raise ValueError("params_batch must have at least one row")
        if not np.all(np.isfinite(array)):
            raise ValueError(
                "parameters contain NaN or infinity; an optimizer has "
                "probably diverged"
            )
        return array

    def _sampled_expectation(
        self,
        state: Statevector,
        observable: Observable,
        shots: int,
        seed: SeedLike,
    ) -> float:
        check_positive_int(shots, "shots")
        _check_observable_width(observable, state.num_qubits)
        rng = ensure_rng(seed)
        if isinstance(observable, Projector):
            bits = state.sample(shots, seed=rng)
            hits = np.all(bits == np.asarray(observable.bits), axis=1)
            return float(np.mean(hits))
        if isinstance(observable, PauliString):
            return self._sampled_pauli(state, observable, shots, rng)
        if isinstance(observable, PauliSum):
            return float(
                sum(
                    self._sampled_pauli(state, term, shots, rng)
                    for term in observable.terms
                )
            )
        raise TypeError(
            f"shot-based estimation is not implemented for {type(observable).__name__}"
        )

    @staticmethod
    def _sampled_pauli(
        state: Statevector, term: PauliString, shots: int, rng: np.random.Generator
    ) -> float:
        if term.is_identity:
            return term.coefficient
        rotated = state.data
        for matrix, qubit in term.rotation_matrices():
            rotated = apply_matrix(rotated, matrix, [qubit], state.num_qubits)
        bits = Statevector(rotated, validate=False).sample(shots, seed=rng)
        return float(np.mean(term.eigenvalues_of_bits(bits)))
