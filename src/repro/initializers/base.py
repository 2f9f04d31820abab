"""Initializer interface and the PQC parameter-shape/fan conventions.

Classical initialization schemes are defined for dense layers with a
``fan_in``/``fan_out``; a PQC instead has a parameter tensor of shape
``(num_layers, num_qubits, params_per_qubit)``.  The paper does not state
how it mapped one onto the other, so the mapping is made explicit here
through :class:`FanMode` (DESIGN.md, substitutions table):

``FanMode.QUBITS`` (default)
    A circuit layer on ``q`` qubits is treated as a ``q -> q`` dense layer:
    ``fan_in = fan_out = q``.  This is the natural reading — each layer
    consumes and produces a ``q``-qubit state — and keeps every scheme's
    angle scale at ``Theta(1/sqrt(q))``.
``FanMode.PARAMS_PER_LAYER``
    ``fan_in = fan_out = q * params_per_qubit`` — counts parameters rather
    than wires.
``FanMode.QUBITS_IN_PARAMS_OUT``
    ``fan_in = q``, ``fan_out = q * params_per_qubit`` — an asymmetric
    reading that separates Xavier (which averages the two) from He/LeCun
    (which only use ``fan_in``).

The ablation bench ``bench_ablation_fan_mode`` quantifies how the choice
moves the headline numbers.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = ["FanMode", "ParameterShape", "Initializer"]


class FanMode(enum.Enum):
    """How a PQC layer maps onto a dense layer's fan-in/fan-out."""

    QUBITS = "qubits"
    PARAMS_PER_LAYER = "params_per_layer"
    QUBITS_IN_PARAMS_OUT = "qubits_in_params_out"


@dataclass(frozen=True)
class ParameterShape:
    """Shape of a PQC's trainable parameter tensor.

    Attributes
    ----------
    num_layers:
        Circuit depth in ansatz layers (``L`` in the paper's Eq. 3).
    num_qubits:
        Circuit width (``n``).
    params_per_qubit:
        Parameterized gates per qubit per layer (1 for the variance-analysis
        ansatz, 2 — RX and RY — for the training ansatz).
    """

    num_layers: int
    num_qubits: int
    params_per_qubit: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.num_layers, "num_layers")
        check_positive_int(self.num_qubits, "num_qubits")
        check_positive_int(self.params_per_qubit, "params_per_qubit")

    @property
    def params_per_layer(self) -> int:
        """Trainable angles in one ansatz layer."""
        return self.num_qubits * self.params_per_qubit

    @property
    def num_parameters(self) -> int:
        """Total trainable angles in the circuit."""
        return self.num_layers * self.params_per_layer

    def fans(self, mode: FanMode = FanMode.QUBITS) -> Tuple[int, int]:
        """``(fan_in, fan_out)`` for one layer under the given convention."""
        if mode is FanMode.QUBITS:
            return self.num_qubits, self.num_qubits
        if mode is FanMode.PARAMS_PER_LAYER:
            return self.params_per_layer, self.params_per_layer
        if mode is FanMode.QUBITS_IN_PARAMS_OUT:
            return self.num_qubits, self.params_per_layer
        raise ValueError(f"unknown fan mode {mode!r}")

    def as_tensor_shape(self) -> Tuple[int, int, int]:
        """``(num_layers, num_qubits, params_per_qubit)``."""
        return (self.num_layers, self.num_qubits, self.params_per_qubit)


class Initializer(abc.ABC):
    """Strategy that samples a PQC's initial trainable parameters.

    Subclasses implement :meth:`sample_layer`; :meth:`sample` stacks one
    draw per layer in the circuit's canonical ordering (layer-major, then
    qubit, then gate within qubit), producing a flat vector compatible with
    the ansatz builders in :mod:`repro.ansatz`.  A subclass whose layer
    draws vectorize overrides :meth:`sample_layers` with one stacked draw
    that consumes the generator exactly as the per-layer loop does.
    """

    #: Registry name; subclasses override.
    name: str = "base"

    def __init__(self, fan_mode: FanMode = FanMode.QUBITS):
        self.fan_mode = fan_mode

    @abc.abstractmethod
    def sample_layer(
        self, shape: ParameterShape, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw the angles for one ansatz layer (flat, length
        ``shape.params_per_layer``)."""

    def sample(self, shape: ParameterShape, seed: SeedLike = None) -> np.ndarray:
        """Draw the full flat parameter vector for a circuit.

        Parameters
        ----------
        shape:
            The circuit's parameter-tensor shape.
        seed:
            Seed or generator for reproducible draws.
        """
        out = self.sample_layers(shape, ensure_rng(seed))
        if out.shape != (shape.num_parameters,):
            raise RuntimeError(
                f"{type(self).__name__}.sample_layer returned wrong size: "
                f"expected {shape.params_per_layer} per layer"
            )
        return out

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw every layer's angles from ``rng``, concatenated flat in
        layer order: one :meth:`sample_layer` call per layer."""
        return np.concatenate(
            [self.sample_layer(shape, rng) for _ in range(shape.num_layers)]
        )

    def describe(self, shape: ParameterShape) -> str:
        """One-line human-readable description for reports."""
        fan_in, fan_out = shape.fans(self.fan_mode)
        return f"{self.name}(fan_in={fan_in}, fan_out={fan_out})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(fan_mode={self.fan_mode.value})"
