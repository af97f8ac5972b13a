import cmath

import numpy as np
import pytest

from spikesr import prony
from spikesr.errors import DegenerateSystemError, RepeatedRootsError
from spikesr.prony import (
    prony_map,
    prony_solve,
)


def _recurrence_residual(nu, coeffs):
    """Worst |sum_l nu_{k+l} c_l| over the windows of nu: zero (to roundoff)
    exactly when nu is a power-sum sequence of the roots of the monic
    polynomial with ascending coefficients coeffs."""
    c = np.asarray(coeffs, dtype=complex)
    windows = np.lib.stride_tricks.sliding_window_view(np.asarray(nu, dtype=complex), len(c))
    return float(np.abs(windows @ c).max())


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
        (0.5, 0.5e-3, True),  # half the tolerance apart
        (0.5, 2e-3, False),  # twice the tolerance apart
        (2.0, 1.5e-3, True),  # under the tolerance scaled by the node modulus 2
        (2.0, 3e-3, False),
    ],
)
def test_prony_solve_coincidence_threshold(node, gap, raises, monkeypatch):
    monkeypatch.setattr(prony, "_COINCIDENCE_TOL", 1e-3)
    nodes = [node, node + gap]
    mu = prony_map([1.0, -1.0j], nodes, 4)
    if raises:
        with pytest.raises(RepeatedRootsError):
            prony_solve(mu, 2)
    else:
        solution = prony_solve(mu, 2)
        np.testing.assert_allclose(np.sort(solution.nodes.real), nodes, rtol=1e-9)


def test_prony_solve_input_validation():
    with pytest.raises(ValueError):
        prony_solve([1, 2, 3], 2)


def test_recurrence_residual_examples():
    nu = prony_map([1, 1], [1, -1], 6)
    assert _recurrence_residual(nu, [-1, 0, 1]) == pytest.approx(0.0, abs=1e-14)
    assert _recurrence_residual([1, 2, 3, 4], [-1, 1]) == pytest.approx(1.0)


def test_recurrence_residual_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        w = rng.normal(size=d) + 1j * rng.normal(size=d)
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        nu = prony_map(a, w, 8)
        coeffs = np.poly(w)[::-1]  # monic node polynomial, ascending
        assert _recurrence_residual(nu, coeffs) < 1e-10 * max(1.0, np.abs(nu).max())


def _reference_prony_solve(mu, d, null_tol=1e-10, coincidence_tol=1e-9):
    """The former prony_solve, which took the nodes from np.roots, kept as a
    reference."""
    data = np.atleast_1d(np.asarray(mu, dtype=complex))
    idx = np.add.outer(np.arange(d), np.arange(d + 1))
    _, sigma, vh = np.linalg.svd(data[idx])
    if sigma[0] == 0 or sigma[-1] / sigma[0] < null_tol:
        raise DegenerateSystemError("degenerate")
    coeffs = vh[-1].conj()
    if abs(coeffs[-1]) < 1e-12 * np.abs(coeffs).max():
        raise DegenerateSystemError("degenerate")
    coeffs = coeffs / coeffs[-1]
    nodes = np.roots(coeffs[::-1])
    scale = max(1.0, np.abs(nodes).max())
    gaps = np.abs(np.subtract.outer(nodes, nodes))
    np.fill_diagonal(gaps, np.inf)
    if gaps.min() < coincidence_tol * scale:
        raise RepeatedRootsError("repeated")
    order = np.lexsort((np.abs(nodes), np.angle(nodes)))
    nodes = nodes[order]
    vand = np.power.outer(nodes, np.arange(2 * d)).T
    amps, *_ = np.linalg.lstsq(vand, data, rcond=None)
    return amps, nodes


def _assert_same_solution(mu, d):
    try:
        expected = _reference_prony_solve(mu, d)
    except (DegenerateSystemError, RepeatedRootsError) as exc:
        with pytest.raises(type(exc)):
            prony_solve(mu, d)
        return
    sol = prony_solve(mu, d)
    assert np.array_equal(sol.amplitudes, expected[0])
    assert np.array_equal(sol.nodes, expected[1])


def test_prony_solve_matches_np_roots_reference_on_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        w = rng.uniform(0.5, 1.5, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        a = rng.uniform(0.1, 10, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        _assert_same_solution(prony_map(a, w, 2 * d), d)
        # real clustered systems like the worst-case construction solves
        x = np.sort(rng.uniform(-1e-2, 1e-2, d))
        mu = prony_map((-1.0) ** np.arange(d), x, 2 * d).real
        mu[-1] += 10.0 ** rng.uniform(-14, -4)
        _assert_same_solution(mu.astype(complex), d)


def test_prony_solve_zero_constant_coefficient_keeps_exact_zero_root():
    # the null vector of [[2, 0]] is exactly (0, 1): the node is exactly zero
    _assert_same_solution([2.0, 0.0], 1)
    assert prony_solve([2.0, 0.0], 1).nodes[0] == 0


@pytest.mark.parametrize(
    "coeffs",
    [
        [0.0, 0.5, 1.0],
        [0.0, 0.0, -2.0, 1.0],
        [1e-300, 0.0, 1.0],
        [2.0 - 1.0j, 0.3j, -1.5, 1.0],
    ],
)
def test_monic_roots_match_np_roots(coeffs):
    from spikesr.prony import _monic_roots

    c = np.asarray(coeffs, dtype=complex)
    assert np.array_equal(_monic_roots(c), np.roots(c[::-1]))


@pytest.mark.parametrize(
    "amplitudes, nodes, count, message",
    [
        ([1.0], [0.5], 0, "need at least one output value"),
        ([1.0], [0.5], -3, "need at least one output value"),
        ([1.0, 2.0], [0.5], 4, "amplitudes and nodes must have equal length"),
        (1.0, [0.1, 0.2], 4, "amplitudes and nodes must have equal length"),
    ],
)
def test_prony_map_rejects_bad_count_and_unequal_lengths(amplitudes, nodes, count, message):
    with pytest.raises(ValueError) as excinfo:
        prony_map(amplitudes, nodes, count)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("count", [2.5, 2.0])
def test_prony_map_rejects_a_fractional_count(count):
    # np.arange of a float would silently round 2.5 up to 3 power sums
    with pytest.raises(TypeError):
        prony_map([1.0], [0.5], count)


@pytest.mark.parametrize("d", [0, -1])
def test_prony_solve_rejects_order_below_one(d):
    with pytest.raises(ValueError) as excinfo:
        prony_solve([1.0, 2.0], d)
    assert str(excinfo.value) == "order d must be at least 1"


# pyproject turns RuntimeWarnings into errors, so these also pin that the
# check comes before any arithmetic on the data.
@pytest.mark.parametrize(
    "mu",
    [[np.inf, 1, 2, 3], [1, 2, np.nan, 3], [1, complex(0, -np.inf), 2, 3]],
    ids=["inf", "nan", "imaginary-inf"],
)
def test_prony_solve_rejects_non_finite_power_sums(mu):
    with pytest.raises(ValueError) as excinfo:
        prony_solve(mu, 2)
    assert str(excinfo.value) == "power sums must be finite"


def _numpy_checks_prony_solve(mu, d):
    """An earlier prony_solve, which tested its arrays with numpy reductions,
    kept as a reference for the scalar checks: (amplitudes, nodes), or the
    same exception with the same message."""
    data = np.atleast_1d(np.asarray(mu, dtype=complex))
    if d < 1:
        raise ValueError("order d must be at least 1")
    if len(data) != 2 * d:
        raise ValueError(f"need exactly 2 d = {2 * d} values, got {len(data)}")
    idx = np.add.outer(np.arange(d), np.arange(d + 1))
    _, sigma, vh = np.linalg.svd(data[idx])
    if sigma[0] == 0 or sigma[-1] / sigma[0] < 1e-10:
        raise DegenerateSystemError(
            "degenerate system: Hankel null space is not one-dimensional"
        )
    coeffs = vh[-1].conj()
    if abs(coeffs[-1]) < 1e-12 * np.abs(coeffs).max():
        raise DegenerateSystemError(
            "degenerate system: leading polynomial coefficient vanishes"
        )
    coeffs = coeffs / coeffs[-1]
    if coeffs[0] == 0:
        nodes = np.roots(coeffs[::-1])
    else:
        desc = coeffs[::-1]
        companion = np.eye(len(coeffs) - 1, k=-1, dtype=complex)
        companion[0] = -desc[1:] / desc[0]
        nodes = np.linalg.eigvals(companion)
    scale = max(1.0, np.abs(nodes).max())
    gaps = np.abs(np.subtract.outer(nodes, nodes))
    gaps.flat[:: d + 1] = np.inf
    if gaps.min() < 1e-9 * scale:
        raise RepeatedRootsError("repeated roots: recovered nodes coincide")
    order = np.lexsort((np.abs(nodes), np.arctan2(nodes.imag, nodes.real)))
    nodes = nodes[order]
    vand = np.power.outer(nodes, np.arange(2 * d)).T
    amps, *_ = np.linalg.lstsq(vand, data, rcond=None)
    return amps, nodes


def _reference_systems():
    """(mu, d) pairs that reach every branch of prony_solve."""
    k = np.arange(4)
    confluent = 1.0 * 0.5**k + 0.3 * k * 0.5 ** np.maximum(k - 1, 0) * (k > 0)
    yield [1.0, 2.0], 0  # order below one
    yield [1.0, 2.0, 3.0], 2  # wrong length
    yield 2.0, 1  # a scalar is one value
    yield np.zeros(4), 2  # zero Hankel matrix
    yield prony_map([1.0], [0.5], 4), 2  # null space of dimension two
    yield [1.0, 1.0, 1.0, 0.0], 2  # null vector (1, -1, 0)
    yield confluent, 2  # repeated roots
    yield [2.0, 0.0], 1  # exactly zero constant coefficient
    yield [2, -1, -1, 2], 2  # integer input
    rng = np.random.default_rng(24)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        w = rng.uniform(0.5, 1.5, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        a = rng.uniform(0.1, 10, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        yield prony_map(a, w, 2 * d), d
        # real clustered systems as the worst-case construction solves them,
        # bumped from far inside to far beyond the solvable regime
        x = np.sort(rng.uniform(-1e-2, 1e-2, d))
        mu = prony_map((-1.0) ** np.arange(d), x, 2 * d).real
        mu[-1] += 10.0 ** rng.uniform(-16, -2)
        yield mu.astype(complex), d
        # two nodes closer than the coincidence tolerance
        node = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        gap = 10.0 ** rng.uniform(-11, -7)
        yield prony_map([1.0, -1.0j], [node, node + gap], 4), 2


def test_prony_solve_matches_numpy_checks_reference_on_every_branch():
    outcomes = set()
    for mu, d in _reference_systems():
        try:
            expected = _numpy_checks_prony_solve(mu, d)
        except (ValueError, DegenerateSystemError, RepeatedRootsError) as exc:
            with pytest.raises(type(exc)) as excinfo:
                prony_solve(mu, d)
            assert str(excinfo.value) == str(exc)
            outcomes.add(str(exc))
            continue
        sol = prony_solve(mu, d)
        assert sol.amplitudes.dtype == expected[0].dtype
        assert sol.nodes.dtype == expected[1].dtype
        assert np.array_equal(sol.amplitudes, expected[0])
        assert np.array_equal(sol.nodes, expected[1])
        outcomes.add("solved")
    assert outcomes == {
        "order d must be at least 1",
        "need exactly 2 d = 4 values, got 3",
        "need exactly 2 d = 2 values, got 1",
        "degenerate system: Hankel null space is not one-dimensional",
        "degenerate system: leading polynomial coefficient vanishes",
        "repeated roots: recovered nodes coincide",
        "solved",
    }
