import math
import re

import numpy as np
import pytest

from spikesr import experiments, worstcase
from spikesr.errors import (
    DegenerateSystemError,
    EpsilonTooLargeError,
    RepeatedRootsError,
)
from spikesr.prony import PronySolution, prony_map, prony_solve
from spikesr.signal import ClusterGeometry, SpikeTrain, fourier_at
from spikesr.worstcase import (
    displacement_scaling_probe,
    spectral_deviation,
    worst_case_signal,
)


def _pair_cluster(h):
    return SpikeTrain(amplitudes=[1.0, -1.0], nodes=[-h / 2, h / 2])


def _no_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("prony_solve called")

    monkeypatch.setattr(worstcase, "prony_solve", no_solve)


def test_zero_epsilon_is_identity():
    train = _pair_cluster(0.01)
    report = worst_case_signal(train, 2, 0.0)
    assert report.perturbed is train
    assert report.moment_match_error == 0.0
    assert report.last_moment_delta == 0.0
    assert spectral_deviation(train, report.perturbed, 100.0, 1001) == 0.0


def test_moment_matching_pair():
    train = _pair_cluster(0.01)
    eps = 1e-9
    report = worst_case_signal(train, 2, eps)
    # whole-signal moments: orders 0..2 match, order 3 moves by exactly eps
    before = prony_map(train.amplitudes, train.nodes, 4)
    after = prony_map(report.perturbed.amplitudes, report.perturbed.nodes, 4)
    np.testing.assert_allclose(after[:3], before[:3], atol=1e-8 * max(1, abs(before).max()))
    assert (after[3] - before[3]).real == pytest.approx(eps, rel=1e-8)
    assert report.moment_match_error < 1e-8 * max(1.0, np.abs(before).max())
    assert report.last_moment_delta == pytest.approx(eps, rel=1e-8)


def test_node_displacement_linear_in_epsilon():
    # solvable regime: the threshold for h = 0.05 sits near gap^3/4 ~ 3e-5
    train = _pair_cluster(0.05)
    eps_values = np.geomspace(1e-8, 1e-5, 7)
    disp = [worst_case_signal(train, 2, e).node_displacement for e in eps_values]
    slope = np.polyfit(np.log10(eps_values), np.log10(disp), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_real_nodes_and_untouched_tail():
    # cluster of two plus one distant node: the tail must be bit-identical
    h = 0.002
    train = SpikeTrain(amplitudes=[1.0, -1.0, 0.5 + 0.25j], nodes=[0.0, h, 0.4])
    report = worst_case_signal(train, 2, 1e-10)
    perturbed = report.perturbed
    assert perturbed.nodes[2] == train.nodes[2]
    assert perturbed.amplitudes[2] == train.amplitudes[2]
    assert np.all(np.diff(perturbed.nodes) > 0)
    assert perturbed.nodes[0] != train.nodes[0]


def test_epsilon_too_large_signals():
    train = _pair_cluster(0.01)
    # beyond gap^3/4 the perturbed quadratic has complex roots
    with pytest.raises(EpsilonTooLargeError):
        worst_case_signal(train, 2, 0.01**3)


def test_displaced_cluster_breaking_the_node_order_is_too_large():
    # the upper cluster node sits 1e-7 below the third node: a bump of 1e-11
    # pushes it past that node, one of 1e-12 does not
    train = SpikeTrain(amplitudes=[1.0, 1.0, 1.0], nodes=[0.0, 0.01, 0.0100001])
    with pytest.raises(EpsilonTooLargeError, match="breaks the node ordering"):
        worst_case_signal(train, 2, 1e-11)
    perturbed = worst_case_signal(train, 2, 1e-12).perturbed
    assert train.nodes[1] < perturbed.nodes[1] < train.nodes[2]


def test_requires_real_cluster_amplitudes():
    train = SpikeTrain(amplitudes=[1.0j, -1.0], nodes=[0.0, 0.01])
    with pytest.raises(ValueError, match="cluster amplitudes must be real"):
        worst_case_signal(train, 2, 1e-9)


@pytest.mark.parametrize("epsilon", [0.0, 1e-30, 1e-9])
def test_zero_cluster_amplitude_rejected_at_every_epsilon(monkeypatch, epsilon):
    # a zero amplitude leaves the order-p moment system singular at every
    # epsilon, so it is an input error rather than an epsilon that is too large
    _no_solve(monkeypatch)
    train = SpikeTrain(amplitudes=[1.0, 0.0, 1.0, -1.0], nodes=[0.0, 0.3, 0.301, 0.6])
    with pytest.raises(ValueError, match="cluster amplitudes must be nonzero"):
        worst_case_signal(train, 2, epsilon, kappa=2)


@pytest.mark.parametrize(
    "p, kappa, message",
    [
        (1, 1, "cluster size p must satisfy 2 <= p <= d"),
        (4, 1, "cluster size p must satisfy 2 <= p <= d"),
        (2, 0, "kappa must index a contiguous cluster inside the node vector"),
        (2, 3, "kappa must index a contiguous cluster inside the node vector"),
    ],
)
def test_bad_cluster_indices_rejected_before_any_solve(monkeypatch, p, kappa, message):
    _no_solve(monkeypatch)
    train = SpikeTrain(amplitudes=[1.0, -1.0, 1.0], nodes=[0.0, 0.01, 0.3])
    with pytest.raises(ValueError, match=message):
        worst_case_signal(train, p, 1e-9, kappa)


def test_spectral_deviation_zero_for_identical():
    train = _pair_cluster(0.01)
    assert spectral_deviation(train, train, 10.0, 100) == 0.0


def test_spectral_deviation_modest_at_unit_scale():
    # order-one cluster extent with omega * h <= 2: the deviation stays within
    # a small multiple of epsilon and scales linearly with it
    train = _pair_cluster(2.0)
    eps = 1e-6
    perturbed = worst_case_signal(train, 2, eps).perturbed
    assert spectral_deviation(train, perturbed, 1.0, 1000) <= 10 * eps
    ratios = []
    for e in (1e-8, 1e-7, 1e-6, 1e-5):
        perturbed = worst_case_signal(train, 2, e).perturbed
        ratios.append(spectral_deviation(train, perturbed, 1.0, 500) / e)
    assert max(ratios) / min(ratios) < 1.1


def test_spectral_deviation_linear_slope():
    train = _pair_cluster(0.02)
    eps_values = np.geomspace(1e-9, 1e-6, 7)
    devs = [
        spectral_deviation(train, worst_case_signal(train, 2, e).perturbed, 5.0, 400)
        for e in eps_values
    ]
    slope = np.polyfit(np.log10(eps_values), np.log10(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_spectral_deviation_of_shift_first_order():
    train = SpikeTrain(amplitudes=[1.5], nodes=[0.2])
    omega, delta = 2.0, 1e-6
    moved = SpikeTrain(amplitudes=train.amplitudes, nodes=train.nodes - delta)
    deviation = spectral_deviation(train, moved, omega, 2001)
    assert deviation == pytest.approx(2 * math.pi * omega * delta * 1.5, rel=1e-2)


def test_probe_slopes_pair():
    rows = displacement_scaling_probe(2, np.geomspace(0.02, 0.4, 8))
    srf = np.log10([r[0] for r in rows])
    node_slope = np.polyfit(srf, np.log10([r[1] for r in rows]), 1)[0]
    amp_slope = np.polyfit(srf, np.log10([r[2] for r in rows]), 1)[0]
    assert node_slope == pytest.approx(2.0, abs=0.3)
    assert amp_slope == pytest.approx(3.0, abs=0.3)


def test_probe_slopes_triple():
    rows = displacement_scaling_probe(3, np.geomspace(0.05, 0.4, 8))
    srf = np.log10([r[0] for r in rows])
    node_slope = np.polyfit(srf, np.log10([r[1] for r in rows]), 1)[0]
    amp_slope = np.polyfit(srf, np.log10([r[2] for r in rows]), 1)[0]
    assert node_slope == pytest.approx(4.0, abs=0.3)
    assert amp_slope == pytest.approx(5.0, abs=0.3)


def test_probe_single_row():
    rows = displacement_scaling_probe(2, [0.1])
    assert len(rows) == 1
    srf, node_disp, amp_disp = rows[0]
    assert srf == pytest.approx(10.0)
    assert node_disp > 0 and amp_disp > 0


def test_probe_propagates_epsilon_too_large(monkeypatch):
    monkeypatch.setattr(worstcase, "_PROBE_EPS_COEFF", 1e3)
    with pytest.raises(EpsilonTooLargeError):
        # epsilon = 1e3 (tau h)^3 = 1
        displacement_scaling_probe(2, [0.1])


@pytest.mark.parametrize("p", [0, 1])
def test_probe_rejects_bad_cluster_size_before_any_solve(p, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("worst_case_signal must not be called")

    monkeypatch.setattr(worstcase, "worst_case_signal", never)
    with pytest.raises(ValueError, match="cluster size p must satisfy 2 <= p <= d"):
        displacement_scaling_probe(p, [0.1])


@pytest.mark.parametrize(
    "h", [1e-120, 1e200, np.float64(1e200), math.inf, math.nan, 0.0, -0.1]
)
def test_probe_rejects_an_extent_it_cannot_probe_before_any_solve(h, monkeypatch):
    # 1e-120 underflows the bump 0.02 (tau h)^3 to 0, and 1e200 overflows it
    def never(*args, **kwargs):
        raise AssertionError("worst_case_signal must not be called")

    monkeypatch.setattr(worstcase, "worst_case_signal", never)
    with pytest.raises(ValueError, match=f"^cannot probe h = {re.escape(str(float(h)))}: "):
        displacement_scaling_probe(2, [0.1, h])


def _reference_report(train, geometry, epsilon, omega=None, grid_points=1001, imag_tol=1e-9):
    """An earlier worst_case_signal, which read the cluster from a geometry and
    measured the spectral deviation itself, kept as a reference: (perturbed,
    the four report fields in order, the spectral deviation)."""
    p = geometry.p
    sl = geometry.cluster_slice
    omega_eff = (1.0 / geometry.h) if omega is None else float(omega)
    amps_c = train.amplitudes[sl].real.astype(float)
    nodes_c = train.nodes[sl]
    if epsilon == 0:
        return train, 0.0, 0.0, 0.0, 0.0, 0.0
    center = 0.5 * (nodes_c[0] + nodes_c[-1])
    centered = nodes_c - center
    g = prony_map(amps_c, centered, 2 * p).real
    g_bumped = g.copy()
    g_bumped[2 * p - 1] += epsilon
    try:
        sol = prony_solve(g_bumped.astype(complex), p)
    except (DegenerateSystemError, RepeatedRootsError) as exc:
        raise EpsilonTooLargeError(str(exc)) from exc
    node_scale = max(1.0, np.abs(sol.nodes).max())
    if np.abs(sol.nodes.imag).max() > imag_tol * node_scale:
        raise EpsilonTooLargeError("complex nodes")
    new_nodes = np.sort(sol.nodes.real)
    if np.min(np.diff(new_nodes)) <= imag_tol * node_scale:
        raise EpsilonTooLargeError("coincide")
    new_amps = sol.amplitudes[np.argsort(sol.nodes.real)].real
    spliced_nodes = train.nodes.copy()
    spliced_amps = train.amplitudes.copy()
    spliced_nodes[sl] = new_nodes + center
    spliced_amps[sl] = new_amps
    if not np.all(np.diff(spliced_nodes) > 0):
        raise EpsilonTooLargeError("ordering")
    perturbed = SpikeTrain(amplitudes=spliced_amps, nodes=spliced_nodes)
    new_moments = prony_map(new_amps, new_nodes, 2 * p).real
    grid = np.linspace(-omega_eff, omega_eff, grid_points)
    return (
        perturbed,
        float(np.abs(new_moments[: 2 * p - 1] - g[: 2 * p - 1]).max()),
        float(new_moments[2 * p - 1] - g[2 * p - 1]),
        float(np.abs(new_nodes - centered).max()),
        float(np.abs(new_amps - amps_c).max()),
        float(np.abs(fourier_at(perturbed, grid) - fourier_at(train, grid)).max()),
    )


_FIELDS = (
    "moment_match_error",
    "last_moment_delta",
    "node_displacement",
    "amplitude_displacement",
)


@pytest.mark.parametrize("p, d", [(2, 2), (2, 4), (3, 3), (3, 5)])
def test_report_matches_reference(p, d):
    rng = np.random.default_rng(p * 10 + d)
    compared = failed = 0
    for trial in range(60):
        h = 10.0 ** rng.uniform(-3, -1)
        cluster = h * np.arange(p) / (p - 1)
        spectators = h + 0.2 * np.arange(1, d - p + 1)
        train = SpikeTrain(
            amplitudes=[(-1.0) ** j for j in range(d)],
            nodes=np.concatenate([cluster, spectators]),
        )
        geometry = ClusterGeometry(
            p=p, d=d, h=h, T=1.0, tau=1.0 / (p - 1), eta=min(1.0, h), kappa=1
        )
        eps = 0.0 if trial % 10 == 0 else 10.0 ** rng.uniform(-14, -3)
        omega, grid = (None, 1001) if trial % 2 else (1.0, 3)
        try:
            expected = _reference_report(train, geometry, eps, omega, grid)
        except EpsilonTooLargeError:
            failed += 1
            with pytest.raises(EpsilonTooLargeError):
                worst_case_signal(train, p, eps)
            continue
        report = worst_case_signal(train, p, eps)
        got = [getattr(report, name) for name in _FIELDS]
        omega_eff = 1.0 / h if omega is None else omega
        got.append(spectral_deviation(train, report.perturbed, omega_eff, grid))
        assert [repr(v) for v in got] == [repr(v) for v in expected[1:]]
        assert all(type(v) is float for v in got)
        assert np.array_equal(report.perturbed.nodes, expected[0].nodes)
        assert np.array_equal(report.perturbed.amplitudes, expected[0].amplitudes)
        compared += 1
    assert compared > 20 and failed > 5


def test_zero_epsilon_report_diagnostics_are_zero_floats():
    train = _pair_cluster(0.01)
    report = worst_case_signal(train, 2, 0.0)
    got = [getattr(report, name) for name in _FIELDS]
    got.append(spectral_deviation(train, report.perturbed, 100.0, 2))
    assert [repr(v) for v in got] == ["0.0"] * 5


@pytest.mark.parametrize("epsilon", [0.0, 1e-9])
def test_single_grid_point_rejected_at_every_epsilon(epsilon):
    train = _pair_cluster(0.01)
    perturbed = worst_case_signal(train, 2, epsilon).perturbed
    with pytest.raises(ValueError, match="at least two grid points"):
        spectral_deviation(train, perturbed, 100.0, 1)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_non_finite_epsilon_rejected_before_any_solve(monkeypatch, epsilon):
    _no_solve(monkeypatch)
    with pytest.raises(ValueError, match="epsilon must be finite"):
        worst_case_signal(_pair_cluster(0.01), 2, epsilon)


@pytest.mark.parametrize("omega", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("epsilon", [0.0, 1e-9])
def test_spectral_deviation_rejects_bad_omega(omega, epsilon):
    train = _pair_cluster(0.01)
    perturbed = worst_case_signal(train, 2, epsilon).perturbed
    with pytest.raises(ValueError, match="omega must be finite and positive"):
        spectral_deviation(train, perturbed, omega, 1001)


@pytest.mark.parametrize("epsilon", [-1e-9, -5e-324])
def test_negative_epsilon_rejected_before_any_solve(monkeypatch, epsilon):
    _no_solve(monkeypatch)
    with pytest.raises(ValueError) as excinfo:
        worst_case_signal(_pair_cluster(0.01), 2, epsilon)
    assert str(excinfo.value) == "epsilon must be nonnegative"


def test_nodes_coinciding_after_the_real_snap_are_too_large(monkeypatch):
    # a conjugate pair whose imaginary parts pass the complex-node test but
    # whose real parts are equal
    def conjugate_pair(mu, d):
        return PronySolution(nodes=np.array([1e-3 + 1e-12j, 1e-3 - 1e-12j]), power_sums=mu)

    monkeypatch.setattr(worstcase, "prony_solve", conjugate_pair)
    with pytest.raises(EpsilonTooLargeError) as excinfo:
        worst_case_signal(_pair_cluster(0.01), 2, 1e-9)
    assert str(excinfo.value) == (
        "epsilon too large: perturbed nodes coincide after the real snap"
    )


def _solutions(monkeypatch):
    """Record every PronySolution that worst_case_signal receives."""
    solutions = []

    def recording_solve(mu, d):
        solutions.append(prony_solve(mu, d))
        return solutions[-1]

    monkeypatch.setattr(worstcase, "prony_solve", recording_solve)
    return solutions


@pytest.mark.parametrize(
    "amplitudes, nodes, epsilon, message",
    [
        ([1.0, -1.0, 1.0], [-0.005, 0.005, 0.4], 0.01**3, "complex nodes"),
        ([1.0, 1.0, 1.0], [0.0, 0.01, 0.0100001], 1e-11, "breaks the node ordering"),
    ],
)
def test_a_rejected_construction_fits_no_amplitudes(
    monkeypatch, amplitudes, nodes, epsilon, message
):
    solutions = _solutions(monkeypatch)
    train = SpikeTrain(amplitudes=amplitudes, nodes=nodes)
    with pytest.raises(EpsilonTooLargeError, match=message):
        worst_case_signal(train, 2, epsilon)
    (solution,) = solutions
    assert "amplitudes" not in vars(solution)


def test_an_accepted_construction_fits_its_amplitudes(monkeypatch):
    solutions = _solutions(monkeypatch)
    report = worst_case_signal(_pair_cluster(0.01), 2, 1e-9)
    (solution,) = solutions
    assert "amplitudes" in vars(solution)
    order = solution.nodes.real.argsort()
    assert np.array_equal(report.perturbed_amplitudes, solution.amplitudes[order].real)


def _eager_report(train, p, epsilon):
    """The construction with its four diagnostics computed at once, as
    worst_case_signal did before they were computed on read, kept as a
    reference: (perturbed, the four values in _FIELDS order)."""
    amps_c = train.amplitudes[:p].real.astype(float)
    center = 0.5 * (train.nodes[0] + train.nodes[p - 1])
    centered = train.nodes[:p] - center
    g = prony_map(amps_c, centered, 2 * p).real
    if epsilon == 0:
        perturbed, new_nodes, new_amps = train, centered, amps_c
    else:
        g_bumped = g.copy()
        g_bumped[-1] += epsilon
        sol = prony_solve(g_bumped.astype(complex), p)
        order = sol.nodes.real.argsort()
        new_nodes = sol.nodes.real[order]
        new_amps = sol.amplitudes[order].real
        perturbed = SpikeTrain(
            amplitudes=np.concatenate([new_amps, train.amplitudes[p:]]),
            nodes=np.concatenate([new_nodes + center, train.nodes[p:]]),
        )
    new_g = prony_map(new_amps, new_nodes, 2 * p).real
    return (
        perturbed,
        float(np.abs(new_g[:-1] - g[:-1]).max()),
        float(new_g[-1] - g[-1]),
        float(np.abs(new_nodes - centered).max()),
        float(np.abs(new_amps - amps_c).max()),
    )


@pytest.mark.parametrize(
    "p, epsilon", [(2, 0.0), (2, 1e-9), (2, 3e-7), (3, 0.0), (3, 1e-14), (3, 1e-12)]
)
def test_report_diagnostics_computed_on_read_equal_the_eager_ones(p, epsilon):
    h = 0.05
    train = SpikeTrain(
        amplitudes=[(-1.0) ** j for j in range(p + 1)],
        nodes=[*(h * np.arange(p) / (p - 1)), 0.4],
    )
    report = worst_case_signal(train, p, epsilon)
    assert not set(_FIELDS) & vars(report).keys()
    perturbed, *expected = _eager_report(train, p, epsilon)
    got = [getattr(report, name) for name in _FIELDS]
    assert [repr(v) for v in got] == [repr(v) for v in expected]
    assert all(type(v) is float for v in got)
    assert [getattr(report, name) for name in _FIELDS] == got
    assert np.array_equal(report.perturbed.nodes, perturbed.nodes)
    assert np.array_equal(report.perturbed.amplitudes, perturbed.amplitudes)


def test_an_s2_trial_computes_no_report_diagnostic(monkeypatch):
    reports = []

    def recording_signal(*args):
        reports.append(worst_case_signal(*args))
        return reports[-1]

    monkeypatch.setattr(experiments, "worst_case_signal", recording_signal)
    record = experiments.single_experiment(2, 4, 0.05, 64, 1e-10, "S2", 0)
    assert record.failure is None
    (report,) = reports
    assert not (set(_FIELDS) | {"_perturbed_moments"}) & vars(report).keys()
