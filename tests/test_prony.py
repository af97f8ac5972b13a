import cmath

import numpy as np
import pytest

from spikesr.errors import DegenerateSystemError, RepeatedRootsError
from spikesr.prony import (
    PronySolution,
    prony_map,
    prony_polynomial,
    prony_solve,
    recurrence_residual,
)


def test_prony_map_unit_circle_pair():
    w = [cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)]
    np.testing.assert_allclose(prony_map([1, 1], w, 4), [2, -1, -1, 2], atol=1e-12)


def test_prony_map_constant_and_alternating():
    np.testing.assert_allclose(prony_map([1], [1], 3), [1, 1, 1])
    np.testing.assert_allclose(prony_map([1, -1], [1, -1], 4), [0, 2, 0, 2])


def test_prony_map_permutation_invariance():
    rng = np.random.default_rng(0)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    perm = rng.permutation(4)
    np.testing.assert_allclose(
        prony_map(a, w, 8), prony_map(a[perm], w[perm], 8), rtol=1e-12
    )


def test_prony_solve_unit_circle_pair():
    sol = prony_solve([2, -1, -1, 2], 2)
    expected = sorted(
        [cmath.exp(-2j * cmath.pi / 3), cmath.exp(2j * cmath.pi / 3)],
        key=lambda z: cmath.phase(z),
    )
    np.testing.assert_allclose(sol.nodes, expected, atol=1e-10)
    np.testing.assert_allclose(sol.amplitudes, [1, 1], atol=1e-10)


def test_prony_solve_single_node():
    sol = prony_solve([1.0, 0.5], 1)
    np.testing.assert_allclose(sol.nodes, [0.5], atol=1e-12)
    np.testing.assert_allclose(sol.amplitudes, [1.0], atol=1e-12)


def test_prony_solve_round_trip():
    mu = prony_map([2 + 1j, -1], [0.3, -0.7 + 0.2j], 4)
    sol = prony_solve(mu, 2)
    # canonical order: sort by principal argument
    by_arg = sorted(zip(sol.nodes, sol.amplitudes), key=lambda t: np.angle(t[0]))
    nodes = [t[0] for t in by_arg]
    assert abs(nodes[0] - 0.3) < 1e-9 or abs(nodes[1] - 0.3) < 1e-9
    np.testing.assert_allclose(prony_map(sol.amplitudes, sol.nodes, 4), mu, atol=1e-9)


def test_prony_solve_round_trip_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 7))
        while True:
            w = rng.uniform(0.7, 1.3, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
            if d == 1 or np.min(
                np.abs(w[:, None] - w[None, :])[~np.eye(d, dtype=bool)]
            ) >= 0.05:
                break
        a = rng.uniform(0.1, 10, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        sol = prony_solve(prony_map(a, w, 2 * d), d)
        order_true = np.lexsort((np.abs(w), np.angle(w)))
        np.testing.assert_allclose(sol.nodes, w[order_true], atol=1e-7)
        np.testing.assert_allclose(sol.amplitudes, a[order_true], atol=1e-7)


def test_prony_solve_degenerate_system():
    # data of a single node solved at order 2: the Hankel matrix has rank 1
    mu = prony_map([1.0], [0.5], 4)
    with pytest.raises(DegenerateSystemError):
        prony_solve(mu, 2)


def test_prony_solve_repeated_roots():
    # confluent data a z^k + b k z^{k-1} obeys the recurrence of (x - z)^2
    z, a, b = 0.5, 1.0, 0.3
    k = np.arange(4)
    mu = a * z**k + b * k * z ** np.maximum(k - 1, 0) * (k > 0)
    with pytest.raises(RepeatedRootsError):
        prony_solve(mu.astype(complex), 2)


@pytest.mark.parametrize(
    "node, gap, raises",
    [
        (0.5, 0.5e-3, True),  # coincidence_tol / 2 apart
        (0.5, 2e-3, False),  # 2 coincidence_tol apart
        (2.0, 1.5e-3, True),  # under the tolerance scaled by the node modulus 2
        (2.0, 3e-3, False),
    ],
)
def test_prony_solve_coincidence_threshold(node, gap, raises):
    nodes = [node, node + gap]
    mu = prony_map([1.0, -1.0j], nodes, 4)
    if raises:
        with pytest.raises(RepeatedRootsError):
            prony_solve(mu, 2, coincidence_tol=1e-3)
    else:
        solution = prony_solve(mu, 2, coincidence_tol=1e-3)
        np.testing.assert_allclose(np.sort(solution.nodes.real), nodes, rtol=1e-9)


def test_prony_solve_input_validation():
    with pytest.raises(ValueError):
        prony_solve([1, 2, 3], 2)


def test_recurrence_residual_examples():
    nu = prony_map([1, 1], [1, -1], 6)
    assert recurrence_residual(nu, [-1, 0, 1]) == pytest.approx(0.0, abs=1e-14)
    assert recurrence_residual([1, 2, 3, 4], [-1, 1]) == pytest.approx(1.0)


def test_recurrence_residual_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        w = rng.normal(size=d) + 1j * rng.normal(size=d)
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        nu = prony_map(a, w, 8)
        coeffs = prony_polynomial(w)
        assert recurrence_residual(nu, coeffs) < 1e-10 * max(1.0, np.abs(nu).max())


def test_recurrence_residual_requires_monic():
    with pytest.raises(ValueError):
        recurrence_residual([1, 2, 3], [1.0, 2.0])


def test_prony_polynomial_ascending_monic():
    np.testing.assert_allclose(prony_polynomial([1.0, -1.0]), [-1, 0, 1])


def test_solution_type_validation():
    with pytest.raises(ValueError):
        PronySolution(amplitudes=[1.0], nodes=[0.1, 0.2])
