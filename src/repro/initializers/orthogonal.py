"""Orthogonal initialization (Section III-E of the paper).

For dense networks the scheme fills each layer's weight matrix with a
(semi-)orthogonal matrix obtained from the QR decomposition of a Gaussian
draw (Saxe et al., 2014; Hu, Xiao & Pennington, 2020).  For a PQC layer we
treat the per-layer angle tensor of shape ``(num_qubits, params_per_qubit)``
as that weight matrix, mirroring ``torch.nn.init.orthogonal_`` applied to
the parameter tensor:

1. draw ``A ~ N(0, 1)`` of shape ``(rows, cols)`` (transposed first when
   ``rows < cols`` so the QR factor is well defined);
2. compute the reduced QR decomposition ``A = QR``;
3. fix signs by multiplying ``Q`` columns with ``sign(diag(R))`` so the
   result is Haar-distributed;
4. scale by ``gain`` and flatten in row-major (qubit-major) order.

Entries of a Haar semi-orthogonal matrix have magnitude ``~1/sqrt(rows)``,
so like Xavier/He/LeCun the angles shrink with circuit width — the property
that keeps the circuit away from the 2-design regime.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.initializers.base import Initializer, ParameterShape

__all__ = ["Orthogonal", "haar_orthogonal_matrix"]


def haar_orthogonal_matrix(
    rows: int,
    cols: int,
    rng: np.random.Generator,
    layers: Optional[int] = None,
) -> np.ndarray:
    """Sample a ``rows x cols`` semi-orthogonal matrix, Haar-distributed.

    If ``rows >= cols`` the columns are orthonormal; otherwise the rows are.
    With ``layers`` set, returns a ``(layers, rows, cols)`` stack from one
    Gaussian draw and one stacked QR; it equals ``layers`` successive
    single draws from ``rng`` bit for bit and leaves ``rng`` in the same
    state.
    """
    transpose = rows < cols
    shape = (cols, rows) if transpose else (rows, cols)
    lead = () if layers is None else (layers,)
    gaussian = rng.normal(size=lead + shape)
    q, r = np.linalg.qr(gaussian)
    # Sign correction makes the distribution Haar (uniform) rather than
    # biased by the QR convention.
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return np.swapaxes(q, -1, -2) if transpose else q


class Orthogonal(Initializer):
    """Per-layer semi-orthogonal angle matrix scaled by ``gain``."""

    name = "orthogonal"

    def __init__(self, gain: float = 1.0):
        super().__init__()
        self.gain = float(gain)

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator
    ) -> np.ndarray:
        matrices = haar_orthogonal_matrix(
            shape.num_qubits, shape.params_per_qubit, rng, layers=shape.num_layers
        )
        return (self.gain * matrices).reshape(-1)

    def sample_layer(
        self, shape: ParameterShape, rng: np.random.Generator
    ) -> np.ndarray:
        return self.sample_layers(replace(shape, num_layers=1), rng)
