import json
import math

import numpy as np
import pytest

from spikesr import worstcase
from spikesr.errors import (
    DegenerateSystemError,
    EpsilonTooLargeError,
    RepeatedRootsError,
)
from spikesr.prony import prony_map, prony_solve
from spikesr.signal import ClusterGeometry, SpikeTrain, moments
from spikesr.worstcase import (
    _spectral_deviation,
    displacement_scaling_probe,
    worst_case_signal,
)


def _pair_cluster(h):
    train = SpikeTrain(amplitudes=[1.0, -1.0], nodes=[-h / 2, h / 2])
    geometry = ClusterGeometry(
        p=2, d=2, h=h, T=max(h, 1.0), tau=1.0, eta=min(1.0, h), kappa=1
    )
    return train, geometry


def test_zero_epsilon_is_identity():
    train, geometry = _pair_cluster(0.01)
    report = worst_case_signal(train, geometry, 0.0)
    assert report.perturbed is train
    assert report.moment_match_error == 0.0
    assert report.last_moment_delta == 0.0
    assert report.spectral_deviation == 0.0


def test_moment_matching_pair():
    train, geometry = _pair_cluster(0.01)
    eps = 1e-9
    report = worst_case_signal(train, geometry, eps)
    # whole-signal moments: orders 0..2 match, order 3 moves by exactly eps
    before = moments(train, 4)
    after = moments(report.perturbed, 4)
    np.testing.assert_allclose(after[:3], before[:3], atol=1e-8 * max(1, abs(before).max()))
    assert (after[3] - before[3]).real == pytest.approx(eps, rel=1e-8)
    assert report.moment_match_error < 1e-8 * max(1.0, np.abs(before).max())
    assert report.last_moment_delta == pytest.approx(eps, rel=1e-8)


def test_node_displacement_linear_in_epsilon():
    # solvable regime: the threshold for h = 0.05 sits near gap^3/4 ~ 3e-5
    train, geometry = _pair_cluster(0.05)
    eps_values = np.geomspace(1e-8, 1e-5, 7)
    disp = [worst_case_signal(train, geometry, e).node_displacement for e in eps_values]
    slope = np.polyfit(np.log10(eps_values), np.log10(disp), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_real_nodes_and_untouched_tail():
    # cluster of two plus one distant node: the tail must be bit-identical
    h = 0.002
    train = SpikeTrain(amplitudes=[1.0, -1.0, 0.5 + 0.25j], nodes=[0.0, h, 0.4])
    geometry = ClusterGeometry(p=2, d=3, h=h, T=1.0, tau=1.0, eta=0.3, kappa=1)
    report = worst_case_signal(train, geometry, 1e-10)
    perturbed = report.perturbed
    assert perturbed.nodes[2] == train.nodes[2]
    assert perturbed.amplitudes[2] == train.amplitudes[2]
    assert np.all(np.diff(perturbed.nodes) > 0)
    assert perturbed.nodes[0] != train.nodes[0]


def test_epsilon_too_large_signals():
    train, geometry = _pair_cluster(0.01)
    # beyond gap^3/4 the perturbed quadratic has complex roots
    with pytest.raises(EpsilonTooLargeError):
        worst_case_signal(train, geometry, 0.01**3)


def test_requires_real_cluster_amplitudes():
    train = SpikeTrain(amplitudes=[1.0j, -1.0], nodes=[0.0, 0.01])
    geometry = ClusterGeometry(p=2, d=2, h=0.01, T=1.0, tau=1.0, eta=0.01, kappa=1)
    with pytest.raises(ValueError):
        worst_case_signal(train, geometry, 1e-9)


def test_spectral_deviation_zero_for_identical():
    train, _ = _pair_cluster(0.01)
    assert _spectral_deviation(train, train, 10.0, 100) == 0.0


def test_spectral_deviation_modest_at_unit_scale():
    # order-one cluster extent with omega * h <= 2: the deviation stays within
    # a small multiple of epsilon and scales linearly with it
    train, geometry = _pair_cluster(2.0)
    eps = 1e-6
    report = worst_case_signal(train, geometry, eps, omega=1.0, grid_points=1000)
    assert report.spectral_deviation <= 10 * eps
    ratios = []
    for e in (1e-8, 1e-7, 1e-6, 1e-5):
        r = worst_case_signal(train, geometry, e, omega=1.0, grid_points=500)
        ratios.append(r.spectral_deviation / e)
    assert max(ratios) / min(ratios) < 1.1


def test_spectral_deviation_linear_slope():
    train, geometry = _pair_cluster(0.02)
    eps_values = np.geomspace(1e-9, 1e-6, 7)
    devs = [
        worst_case_signal(train, geometry, e, omega=5.0, grid_points=400).spectral_deviation
        for e in eps_values
    ]
    slope = np.polyfit(np.log10(eps_values), np.log10(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_spectral_deviation_of_shift_first_order():
    train = SpikeTrain(amplitudes=[1.5], nodes=[0.2])
    omega, delta = 2.0, 1e-6
    moved = SpikeTrain(amplitudes=train.amplitudes, nodes=train.nodes - delta)
    deviation = _spectral_deviation(train, moved, omega, 2001)
    assert deviation == pytest.approx(2 * math.pi * omega * delta * 1.5, rel=1e-2)


def test_probe_slopes_pair():
    rows = displacement_scaling_probe(2, 2, np.geomspace(0.02, 0.4, 8), 1.0)
    srf = np.log10([r[0] for r in rows])
    node_slope = np.polyfit(srf, np.log10([r[1] for r in rows]), 1)[0]
    amp_slope = np.polyfit(srf, np.log10([r[2] for r in rows]), 1)[0]
    assert node_slope == pytest.approx(2.0, abs=0.3)
    assert amp_slope == pytest.approx(3.0, abs=0.3)


def test_probe_slopes_triple():
    rows = displacement_scaling_probe(3, 3, np.geomspace(0.05, 0.4, 8), 1.0)
    srf = np.log10([r[0] for r in rows])
    node_slope = np.polyfit(srf, np.log10([r[1] for r in rows]), 1)[0]
    amp_slope = np.polyfit(srf, np.log10([r[2] for r in rows]), 1)[0]
    assert node_slope == pytest.approx(4.0, abs=0.3)
    assert amp_slope == pytest.approx(5.0, abs=0.3)


def test_probe_single_row_and_spectators():
    rows = displacement_scaling_probe(2, 4, [0.1], 1.0)
    assert len(rows) == 1
    srf, node_disp, amp_disp = rows[0]
    assert srf == pytest.approx(10.0)
    assert node_disp > 0 and amp_disp > 0


def test_probe_propagates_epsilon_too_large():
    with pytest.raises(EpsilonTooLargeError):
        # epsilon = 1e3 (omega tau h)^3 = 1
        displacement_scaling_probe(2, 2, [0.1], 1.0, epsilon_coeff=1e3)


@pytest.mark.parametrize("p, d", [(0, 2), (1, 2), (3, 2)])
def test_probe_rejects_bad_cluster_size_before_any_solve(p, d, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("worst_case_signal must not be called")

    monkeypatch.setattr(worstcase, "worst_case_signal", never)
    with pytest.raises(ValueError, match="cluster size p must satisfy 2 <= p <= d"):
        displacement_scaling_probe(p, d, [0.1], 1.0)


def _reference_report(train, geometry, epsilon, omega=None, grid_points=1001, imag_tol=1e-9):
    """The former worst_case_signal, which computed every diagnostic eagerly,
    kept as a reference: (perturbed, the five diagnostics in field order)."""
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
    return (
        perturbed,
        float(np.abs(new_moments[: 2 * p - 1] - g[: 2 * p - 1]).max()),
        float(new_moments[2 * p - 1] - g[2 * p - 1]),
        float(np.abs(new_nodes - centered).max()),
        float(np.abs(new_amps - amps_c).max()),
        _spectral_deviation(train, perturbed, omega_eff, grid_points),
    )


_DIAGNOSTICS = (
    "moment_match_error",
    "last_moment_delta",
    "node_displacement",
    "amplitude_displacement",
    "spectral_deviation",
)


@pytest.mark.parametrize("p, d", [(2, 2), (2, 4), (3, 3), (3, 5)])
def test_lazy_report_matches_eager_reference(p, d):
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
                worst_case_signal(train, geometry, eps, omega, grid)
            continue
        report = worst_case_signal(train, geometry, eps, omega, grid)
        # read the diagnostics in reverse order: each is computed on first read
        got = [getattr(report, name) for name in reversed(_DIAGNOSTICS)][::-1]
        assert [repr(v) for v in got] == [repr(v) for v in expected[1:]]
        assert all(type(v) is float for v in got)
        assert np.array_equal(report.perturbed.nodes, expected[0].nodes)
        assert np.array_equal(report.perturbed.amplitudes, expected[0].amplitudes)
        assert json.dumps(report.to_json_dict()) == json.dumps(
            {
                "perturbed": expected[0].to_json_dict(),
                **dict(zip(_DIAGNOSTICS, expected[1:])),
            }
        )
        compared += 1
    assert compared > 20 and failed > 5


def test_zero_epsilon_report_diagnostics_are_zero_floats():
    train, geometry = _pair_cluster(0.01)
    report = worst_case_signal(train, geometry, 0.0, grid_points=2)
    assert [repr(getattr(report, name)) for name in _DIAGNOSTICS] == ["0.0"] * 5


@pytest.mark.parametrize("epsilon", [0.0, 1e-9])
def test_single_grid_point_rejected_at_every_epsilon(epsilon):
    train, geometry = _pair_cluster(0.01)
    with pytest.raises(ValueError, match="at least two grid points"):
        worst_case_signal(train, geometry, epsilon, grid_points=1)


def test_accepted_construction_skips_the_diagnostics(monkeypatch):
    calls = []
    monkeypatch.setattr(
        worstcase, "_spectral_deviation", lambda *args: calls.append(args) or 0.5
    )
    train, geometry = _pair_cluster(0.01)
    report = worst_case_signal(train, geometry, 1e-9)
    assert calls == []
    assert report.spectral_deviation == 0.5
    assert report.spectral_deviation == 0.5
    assert len(calls) == 1


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_non_finite_epsilon_rejected_before_any_solve(monkeypatch, epsilon):
    def no_solve(*args, **kwargs):
        raise AssertionError("prony_solve called")

    monkeypatch.setattr(worstcase, "prony_solve", no_solve)
    train, geometry = _pair_cluster(0.01)
    with pytest.raises(ValueError, match="epsilon must be finite"):
        worst_case_signal(train, geometry, epsilon)


@pytest.mark.parametrize("omega", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("epsilon", [0.0, 1e-9])
def test_bad_omega_rejected_before_any_solve(monkeypatch, omega, epsilon):
    def no_solve(*args, **kwargs):
        raise AssertionError("prony_solve called")

    monkeypatch.setattr(worstcase, "prony_solve", no_solve)
    train, geometry = _pair_cluster(0.01)
    with pytest.raises(ValueError, match="omega must be finite and positive"):
        worst_case_signal(train, geometry, epsilon, omega=omega)


def test_grid_points_checked_before_the_report_is_read():
    train, geometry = _pair_cluster(0.01)
    with pytest.raises(ValueError, match="two grid points"):
        worst_case_signal(train, geometry, 1e-9, grid_points=1)
