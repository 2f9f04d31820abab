"""Shared fixtures and the statistical test harness.

Besides the usual circuit/simulator fixtures, this module hosts the
shared *statistical* assertions the sampled-path suites use instead of
ad-hoc tolerances:

* :func:`assert_unbiased_estimator` — a z-test that a finite-shot
  estimator's mean (over many fixed-seed replicas) is consistent with the
  analytic expectation;
* :func:`assert_variance_scales_inverse_shots` — checks the estimator's
  variance shrinks like ``~1/shots`` when the shot budget grows.

Both are exposed as same-named fixtures so test modules can take them as
arguments without importing from ``conftest``.  All replicas are drawn
from fixed seeds, so the checks are deterministic: thresholds are sized
for ~4-sigma slack, and a fixed-seed run that passes once passes always.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pytest

from repro.backend import QuantumCircuit, StatevectorSimulator


def assert_unbiased_estimator(
    estimates: Sequence[float],
    exact: float,
    z_max: float = 4.5,
) -> None:
    """Assert sampled ``estimates`` are consistent with the ``exact`` value.

    Given ``N`` independent fixed-seed replicas of a finite-shot
    estimator, checks the standardized deviation of their mean from the
    analytic expectation, ``z = (mean - exact) / (std / sqrt(N))``, stays
    within ``z_max`` — an unbiasedness z-test.  Degenerate estimators
    (zero spread) must match exactly.
    """
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size < 2:
        raise ValueError("need at least 2 replicas for a z-test")
    mean = float(estimates.mean())
    spread = float(estimates.std(ddof=1))
    if spread == 0.0:
        assert mean == pytest.approx(exact, abs=1e-12), (
            f"degenerate estimator (zero spread) is biased: "
            f"mean={mean!r}, exact={exact!r}"
        )
        return
    z = (mean - exact) / (spread / np.sqrt(estimates.size))
    assert abs(z) <= z_max, (
        f"estimator looks biased: mean={mean:.6g} vs exact={exact:.6g} "
        f"(z={z:.2f} over {estimates.size} replicas, threshold {z_max})"
    )


def assert_variance_scales_inverse_shots(
    estimator: Callable[[int, int], float],
    base_shots: int = 32,
    factor: int = 16,
    replicas: int = 150,
    rtol: float = 0.45,
) -> None:
    """Assert an estimator's variance shrinks ``~1/shots``.

    ``estimator(shots, seed)`` must return one finite-shot estimate.
    The empirical variance over ``replicas`` fixed-seed replicas at
    ``base_shots`` is compared with the variance at ``factor * base_shots``
    (disjoint seeds); their ratio must match ``factor`` within ``rtol``
    — the defining scaling of shot noise.
    """
    small = np.array(
        [estimator(base_shots, seed) for seed in range(replicas)]
    )
    large = np.array(
        [
            estimator(base_shots * factor, seed)
            for seed in range(replicas, 2 * replicas)
        ]
    )
    var_small = float(small.var(ddof=1))
    var_large = float(large.var(ddof=1))
    assert var_large > 0.0, "high-shot estimator has zero variance"
    ratio = var_small / var_large
    assert factor * (1 - rtol) <= ratio <= factor * (1 + rtol), (
        f"variance ratio {ratio:.2f} not ~{factor} "
        f"(var[{base_shots} shots]={var_small:.3e}, "
        f"var[{base_shots * factor} shots]={var_large:.3e})"
    )


@pytest.fixture(name="assert_unbiased_estimator")
def assert_unbiased_estimator_fixture():
    """The shared unbiasedness z-test (see module docstring)."""
    return assert_unbiased_estimator


@pytest.fixture(name="assert_variance_scales_inverse_shots")
def assert_variance_scales_fixture():
    """The shared ``~1/shots`` variance-scaling check."""
    return assert_variance_scales_inverse_shots


@pytest.fixture
def simulator() -> StatevectorSimulator:
    """A shared exact simulator (stateless, safe to reuse)."""
    return StatevectorSimulator()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def bell_circuit() -> QuantumCircuit:
    """H(0) + CNOT(0,1): prepares (|00> + |11>)/sqrt(2)."""
    return QuantumCircuit(2).h(0).cx(0, 1)


@pytest.fixture
def small_trainable_circuit() -> QuantumCircuit:
    """3-qubit, 2-layer HEA-style circuit with 12 trainable parameters."""
    circuit = QuantumCircuit(3)
    for _ in range(2):
        for q in range(3):
            circuit.rx(q)
            circuit.ry(q)
        circuit.cz(0, 1).cz(1, 2)
    return circuit


def random_angles(circuit: QuantumCircuit, seed: int = 0) -> np.ndarray:
    """Uniform angles in [0, 2*pi) for a circuit's parameters."""
    gen = np.random.default_rng(seed)
    return gen.uniform(0.0, 2.0 * np.pi, circuit.num_parameters)


def _hea_cz_chain() -> "tuple[QuantumCircuit, None]":
    from repro.ansatz.hea import HardwareEfficientAnsatz

    return HardwareEfficientAnsatz(4, 3).build(), None


def _bound_diagonals() -> "tuple[QuantumCircuit, None]":
    # A bound non-unit RZ and a T gate split the CZ runs; S joins one.
    circuit = QuantumCircuit(3).h(0).h(1).h(2).rx(0).ry(2)
    circuit.cz(0, 1).rz(1, value=0.37).cz(1, 2).s(0).cz(0, 1).t(2)
    circuit.ry(1).cz(1, 2).rz(0)
    return circuit, None


def _hea_initial_state() -> "tuple[QuantumCircuit, object]":
    from repro.ansatz.hea import HardwareEfficientAnsatz
    from repro.backend import Statevector

    return HardwareEfficientAnsatz(3, 2).build(), Statevector.random_state(
        3, seed=4
    )


#: ``(circuit, initial_state)`` builders for the stacked-engine identity
#: tests: the fused CZ-chain path, fixed/bound diagonals that do and do
#: not fuse, and a non-default initial state.
STACKED_ENGINE_CASES = {
    "hea_cz_chain": _hea_cz_chain,
    "bound_diagonals": _bound_diagonals,
    "initial_state": _hea_initial_state,
}
