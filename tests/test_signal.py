import gc
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import spikesr
from spikesr import cli
from spikesr.matrix_pencil import mp_recover
from spikesr.experiments import phase_transition_sweep
from spikesr.prony import prony_map, prony_solve
from spikesr.signal import (
    ClusterGeometry,
    SpectralSamples,
    SpikeTrain,
    _standard_nodes,
    clean_spectrum,
    fourier_at,
    make_clustered_nodes,
    sample_spectrum,
    standard_cluster_geometry,
)
from spikesr.worstcase import displacement_scaling_probe, worst_case_signal


def _meets_cluster_conditions(nodes, geometry, rtol=1e-9):
    """Pairwise-distance conditions of a clustered configuration, all pairs at
    once: tau h <= |x_j - x_k| <= h for cluster pairs, eta T <= |x_l - x_j| <= T
    for every pair with a non-cluster node, each up to a relative slack rtol."""
    x = np.asarray(nodes, dtype=float)
    if len(x) != geometry.d:
        return False
    in_cluster = np.zeros(len(x), dtype=bool)
    in_cluster[geometry.cluster_slice] = True
    both = np.logical_and.outer(in_cluster, in_cluster)
    lo = np.where(both, geometry.tau * geometry.h, geometry.eta * geometry.T)
    hi = np.where(both, geometry.h, geometry.T)
    slack = rtol * np.maximum(1.0, hi)
    gaps = np.abs(np.subtract.outer(x, x))
    ok = (lo - slack <= gaps) & (gaps <= hi + slack)
    return bool(ok[np.triu_indices(len(x), 1)].all())


def test_spike_train_invariants():
    with pytest.raises(ValueError):
        SpikeTrain(amplitudes=[1.0, 2.0], nodes=[0.5, 0.5])
    with pytest.raises(ValueError):
        SpikeTrain(amplitudes=[1.0], nodes=[0.1, 0.2])
    with pytest.raises(ValueError):
        SpikeTrain(amplitudes=[], nodes=[])
    train = SpikeTrain(amplitudes=[1.0, -2.0], nodes=[-0.3, 0.4])
    assert train.d == 2


@pytest.mark.parametrize(
    "amplitudes, nodes",
    [
        ([math.nan, 1.0, 1.0], [0.0, 0.1, 0.5]),
        ([1.0, 1.0, 1.0], [0.0, 0.1, math.inf]),
        ([1.0, 1.0, 1.0], [-math.inf, 0.1, 0.5]),
        ([1.0, 1.0, 1.0], [0.0, math.nan, 0.5]),
    ],
    ids=["nan-amplitude", "inf-node", "minus-inf-node", "nan-node"],
)
def test_spike_train_rejects_non_finite_values(amplitudes, nodes):
    with pytest.raises(ValueError, match="^amplitudes and nodes must be finite$"):
        SpikeTrain(amplitudes=amplitudes, nodes=nodes)


def test_fourier_single_spike_at_origin():
    train = SpikeTrain(amplitudes=[1.0], nodes=[0.0])
    for s in (0.0, 0.37, -12.5):
        assert fourier_at(train, s) == pytest.approx(1.0 + 0.0j)


def test_fourier_blown_up_pair_sample():
    # nodes (1/10, 2/10) blown up by rate 10/3 become (1/3, 2/3); the first
    # unit-rate sample is exp(2 pi i/3) + exp(4 pi i/3) = -1.
    train = SpikeTrain(amplitudes=[1.0, 1.0], nodes=[0.1, 0.2])
    blown = SpikeTrain(amplitudes=train.amplitudes, nodes=train.nodes / (3.0 / 10.0))
    np.testing.assert_allclose(blown.nodes, [1 / 3, 2 / 3], atol=1e-15)
    assert fourier_at(blown, -1.0) == pytest.approx(-1.0 + 0.0j, abs=1e-12)
    samples = sample_spectrum(blown, 4, 0.0, 0)
    np.testing.assert_allclose(samples.values, [2, -1, -1, 2], atol=1e-12)


def test_fourier_at_a_scalar_is_a_complex_equal_to_its_array_entry():
    train = SpikeTrain(amplitudes=[2.0, -1.0 + 0.5j], nodes=[-0.3, 0.4])
    value = fourier_at(train, 0.7)
    assert isinstance(value, complex)
    assert value == fourier_at(train, np.array([0.7]))[0]


def test_fourier_zero_frequency_sums_amplitudes():
    train = SpikeTrain(amplitudes=[2.0, -1.0], nodes=[-0.3, 0.4])
    assert fourier_at(train, 0.0) == pytest.approx(1.0 + 0.0j)


def test_sample_spectrum_constant_for_origin_spike():
    train = SpikeTrain(amplitudes=[1.0], nodes=[0.0])
    samples = sample_spectrum(train, 4, 0.0, 0)
    np.testing.assert_allclose(samples.values, np.ones(4))
    assert samples.actual_noise == 0.0


@pytest.mark.parametrize(
    "amplitudes, nodes",
    [
        ([-0.0], [0.0]),
        ([complex(-0.0, -0.0), 1.0], [0.0, 0.25]),
        ([1.0, -1.0, 1.0, -1.0], [0.0, 0.001, 0.2, 0.35]),
        ([1.0, 1j, -2.0], [-0.3, 0.01, 0.02]),
    ],
)
def test_zero_noise_samples_match_adding_a_zero_array(amplitudes, nodes):
    # the former zero-noise path added np.zeros and measured its maximum
    train = SpikeTrain(amplitudes=amplitudes, nodes=nodes)
    for count in (1, 7, 64):
        samples = sample_spectrum(train, count, 0.0, 0)
        expected = clean_spectrum(train, count) + np.zeros(count, dtype=complex)
        assert samples.values.tobytes() == expected.tobytes()
        assert samples.actual_noise == 0.0


def test_sample_spectrum_noise_bound_and_determinism():
    train = SpikeTrain(amplitudes=[1.0, 1j], nodes=[0.1, 0.3])
    a = sample_spectrum(train, 8, 1e-3, 42)
    b = sample_spectrum(train, 8, 1e-3, 42)
    np.testing.assert_array_equal(a.values, b.values)
    assert 0.0 < a.actual_noise <= 1e-3
    clean = clean_spectrum(train, 8)
    assert np.abs(a.values - clean).max() == pytest.approx(a.actual_noise)
    c = sample_spectrum(train, 8, 1e-3, 43)
    assert np.any(c.values != a.values)


@pytest.mark.parametrize("noise_bound", [math.nan, math.inf, -1.0])
def test_sample_spectrum_rejects_a_non_finite_or_negative_bound(noise_bound):
    train = SpikeTrain(amplitudes=[1.0, 1j], nodes=[0.1, 0.3])
    with pytest.raises(ValueError, match="noise_bound must be finite and nonnegative"):
        sample_spectrum(train, 8, noise_bound, 0)


def test_clean_spectrum_needs_a_sample():
    train = SpikeTrain(amplitudes=[1.0], nodes=[0.0])
    with pytest.raises(ValueError, match="^need at least one sample$"):
        clean_spectrum(train, 0)


@pytest.mark.parametrize("count", [4.5, 4.0, np.float64(4.0)])
def test_clean_spectrum_rejects_a_fractional_count(count):
    # np.arange of a float would silently round 4.5 up to 5 samples
    train = SpikeTrain(amplitudes=[1.0], nodes=[0.0])
    with pytest.raises(TypeError):
        clean_spectrum(train, count)
    assert len(clean_spectrum(train, np.int64(4))) == 4


def test_sample_spectrum_draws_disk_noise():
    # radius uniform on [0, bound], then angle uniform on [0, 2 pi), one stream
    train = SpikeTrain(amplitudes=[1.0, -0.5j], nodes=[0.2, 0.45])
    for count, bound, seed in ((1, 1e-2, 7), (16, 1e-2, 7), (64, 3.0, 123)):
        rng = np.random.default_rng(seed)
        radius = rng.uniform(0.0, bound, count)
        noise = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))
        samples = sample_spectrum(train, count, bound, seed)
        expected = clean_spectrum(train, count) + noise
        assert samples.values.tobytes() == expected.tobytes()
        assert samples.actual_noise == float(np.abs(noise).max()) <= bound


def test_sample_sign_convention_matches_fourier():
    train = SpikeTrain(amplitudes=[1.5, -0.5 + 2j], nodes=[-0.2, 0.35])
    samples = sample_spectrum(train, 6, 0.0, 0)
    for k in range(6):
        assert samples.values[k] == pytest.approx(fourier_at(train, -float(k)))


def test_moments_examples():
    # algebraic moments m_k = sum_j a_j x_j^k of a spike train
    for amplitudes, nodes, expected in (
        ([1.0], [0.0], [1, 0, 0]),
        ([1.0, -1.0], [-1.0, 1.0], [0, -2, 0, -2]),
        ([2.0], [0.5], [2, 1, 0.5]),
    ):
        train = SpikeTrain(amplitudes=amplitudes, nodes=nodes)
        np.testing.assert_allclose(
            prony_map(train.amplitudes, train.nodes, len(expected)), expected
        )


def test_moments_are_taylor_coefficients_of_transform():
    train = SpikeTrain(amplitudes=[1.0, 2.0, -0.5], nodes=[-0.4, 0.1, 0.3])
    m = prony_map(train.amplitudes, train.nodes, 25)
    for omega in (1e-3, 1e-2, 0.05):
        partial = sum(
            m[k] * (-2j * np.pi * omega) ** k / math.factorial(k) for k in range(25)
        )
        assert partial == pytest.approx(fourier_at(train, omega), rel=1e-10)


def test_make_clustered_nodes_examples():
    nodes = make_clustered_nodes(standard_cluster_geometry(2, 3, 0.01))
    np.testing.assert_allclose(nodes, [0.0, 0.01, 0.01 + (math.pi - 0.01) / 2])
    nodes = make_clustered_nodes(standard_cluster_geometry(2, 2, 0.5))
    np.testing.assert_allclose(nodes, [0.0, 0.5])
    nodes = make_clustered_nodes(standard_cluster_geometry(3, 4, 0.02))
    np.testing.assert_allclose(nodes, [0.0, 0.01, 0.02, 0.02 + (math.pi - 0.02) / 2])


@pytest.mark.parametrize("p, d", [(1, 3), (3, 2)])
def test_standard_cluster_geometry_rejects_bad_cluster_size(p, d):
    # checked before tau = 1/(p-1) and eta's 1/(d-p+1) are formed
    with pytest.raises(ValueError, match="2 <= p <= d"):
        standard_cluster_geometry(p, d, 0.1)


def test_make_clustered_nodes_rejects_wide_cluster():
    with pytest.raises(ValueError):
        standard_cluster_geometry(2, 3, math.pi)
    geometry = ClusterGeometry(p=2, d=3, h=1.0, T=4.0, tau=1.0, eta=0.25, kappa=2)
    with pytest.raises(ValueError):
        make_clustered_nodes(geometry)  # layout requires kappa == 1
    # a geometry built directly, not through standard_cluster_geometry
    wide = ClusterGeometry(p=3, d=3, h=4.0, T=5.0, tau=0.5, eta=1.0)
    with pytest.raises(ValueError, match="^cluster extent must be below pi$"):
        make_clustered_nodes(wide)


def test_make_clustered_nodes_rejects_a_step_that_rounds_to_zero():
    # h / (p - 1) = 5e-324 / 2 rounds to 0, so the cluster nodes coincide
    geometry = standard_cluster_geometry(3, 3, 5e-324)
    with pytest.raises(
        ValueError, match="^layout parameters do not give strictly increasing nodes$"
    ):
        make_clustered_nodes(geometry)


def _reference_layout(geometry):
    """The former numpy body of make_clustered_nodes, kept as a reference."""
    if geometry.kappa != 1:
        raise ValueError("the standard layout places the cluster at the start (kappa == 1)")
    p, d, h = geometry.p, geometry.d, geometry.h
    if h >= math.pi:
        raise ValueError("cluster extent must be below pi")
    step = h / (p - 1)
    cluster = step * np.arange(p)
    rest_gap = (math.pi - (p - 1) * step) / (d - p + 1)
    rest = (p - 1) * step + rest_gap * np.arange(1, d - p + 1)
    nodes = np.concatenate([cluster, rest])
    if not (nodes[1:] > nodes[:-1]).all():
        raise ValueError("layout parameters do not give strictly increasing nodes")
    return nodes


def _layout_extents():
    """(p, d, h) of a grid and of the layouts the benchmark workloads draw:
    decimation-scan's p=3, d=8 at h = 2 pi factor (2 d - 1) / (2 omega) with
    omega in [50, 8000] and factor in [0.3, 0.9]; amp-s2-small's p=2, d=4
    with h in DEFAULT_AMPLIFICATION_RANGES."""
    from spikesr.experiments import DEFAULT_AMPLIFICATION_RANGES

    grid = np.geomspace(1e-6, np.nextafter(math.pi, 0.0), 60).tolist()
    for p in range(2, 5):
        for d in range(p, 10):
            for h in grid:
                yield p, d, h
    rng = np.random.default_rng(28)
    omegas = np.exp(rng.uniform(math.log(50.0), math.log(8000.0), 2000))
    factors = rng.uniform(0.3, 0.9, 2000)
    for omega, factor in zip(omegas.tolist(), factors.tolist()):
        yield 3, 8, 2.0 * math.pi * (factor * (2 * 8 - 1) / 2.0 / omega)
    lo, hi = np.log(DEFAULT_AMPLIFICATION_RANGES["h_range"])
    for h in [*np.exp(rng.uniform(lo, hi, 2000)).tolist(), math.exp(lo), math.exp(hi)]:
        yield 2, 4, h


def _bits_or_error(build):
    """The float.hex of each node build() returns, or its error's class and
    message."""
    try:
        nodes = build()
    except ValueError as exc:
        return type(exc), str(exc)
    return [x.hex() for x in nodes]


def test_layout_matches_the_numpy_reference_bit_for_bit():
    cases = rejected = 0
    for p, d, h in _layout_extents():
        geometry = standard_cluster_geometry(p, d, h)
        expected = _bits_or_error(lambda: _reference_layout(geometry).tolist())
        assert _bits_or_error(lambda: _standard_nodes(p, d, h)) == expected, (p, d, h)
        assert _bits_or_error(lambda: make_clustered_nodes(geometry).tolist()) == expected
        cases += 1
        rejected += type(expected) is tuple
    assert cases == 1260 + 2000 + 2002
    # the grid's widest clusters leave the other nodes no room
    assert 0 < rejected < 20


def test_validate_cluster_examples():
    tight = ClusterGeometry(p=2, d=2, h=0.01, T=1.0, tau=1.0, eta=0.005, kappa=1)
    assert _meets_cluster_conditions([0.0, 0.01], tight)
    assert not _meets_cluster_conditions([0.0, 0.02], tight)
    assert not _meets_cluster_conditions([0.0, 0.01, 0.02], tight)
    loose = ClusterGeometry(p=2, d=3, h=0.01, T=1.0, tau=0.5, eta=0.5, kappa=1)
    assert not _meets_cluster_conditions([0.0, 0.01, 0.3], loose)  # eta T breached
    assert not _meets_cluster_conditions([0.0, 0.01, 1.5], loose)  # T breached
    geometry = standard_cluster_geometry(2, 3, 0.01)
    assert _meets_cluster_conditions(make_clustered_nodes(geometry), geometry)


def test_validate_cluster_randomized_layouts():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = int(rng.integers(2, 5))
        d = int(rng.integers(p, p + 4))
        h = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5))))
        geometry = standard_cluster_geometry(p, d, h)
        assert _meets_cluster_conditions(make_clustered_nodes(geometry), geometry)


def test_shift_preserves_transform_magnitude():
    rng = np.random.default_rng(3)
    train = SpikeTrain(amplitudes=[1.0, -2.0 + 1j], nodes=[-0.2, 0.5])
    shifted = SpikeTrain(amplitudes=train.amplitudes, nodes=train.nodes - 0.37)
    for s in rng.uniform(-5, 5, 10):
        assert abs(fourier_at(shifted, s)) == pytest.approx(
            abs(fourier_at(train, s)), rel=1e-12
        )


# The file forms of spike trains and samples belong to the CLI, which reads
# and writes them; the tests below drive it through cli.main.


def _run_cli(tmp_path, argv, text):
    """Exit code and parsed report of `spikesr` argv, with an input file
    holding text; the report is None when none was written."""
    src, out = tmp_path / "input.json", tmp_path / "report.json"
    src.write_text(text)
    code = cli.main([argv[0], "-i", str(src), *argv[1:], "-o", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_json_round_trips(tmp_path):
    # worstcase at epsilon 0 writes back the train it read, bit for bit
    train = SpikeTrain(amplitudes=[1.0, -0.5, 2.0 - 0.1j], nodes=[-0.1, 0.8, 0.9])
    obj = {
        "amplitudes": [[a.real, a.imag] for a in train.amplitudes.tolist()],
        "nodes": train.nodes.tolist(),
    }
    code, report = _run_cli(tmp_path, ["worstcase", "-p", "2", "--epsilon", "0"], json.dumps(obj))
    assert code == 0
    assert report["perturbed"] == obj


@pytest.mark.parametrize(
    "amplitudes, nodes",
    [
        ([[1, 0], [math.nan, 0], [1, 0]], [0.0, 0.01, 0.3]),
        ([[1, 0], [0, math.inf], [1, 0]], [0.0, 0.01, 0.3]),
        ([[1, 0], [-1, 0], [1, 0]], [0.0, 0.01, math.inf]),
        ([[1, 0], [-1, 0], [1, 0]], [-math.inf, 0.01, 0.3]),
    ],
)
def test_spike_train_json_rejects_non_finite_values(tmp_path, capsys, amplitudes, nodes):
    text = json.dumps({"amplitudes": amplitudes, "nodes": nodes})
    code, report = _run_cli(tmp_path, ["worstcase", "-p", "2", "--epsilon", "1e-9"], text)
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == (
        "error: bad spike-train file: amplitudes and nodes must be finite\n"
    )


def _samples_read(tmp_path, monkeypatch, obj):
    """The samples `spikesr recover -d 1` hands to mp_recover for a samples
    file holding obj; the run must exit 0."""
    seen = []

    def recording_recover(samples, *args):
        seen.append(samples)
        return mp_recover(samples, *args)

    monkeypatch.setattr(cli, "mp_recover", recording_recover)
    code, report = _run_cli(tmp_path, ["recover", "-d", "1"], json.dumps(obj))
    assert code == 0 and len(seen) == 1
    return seen[0]


@pytest.mark.parametrize("actual_noise", [float("nan"), math.inf, -1.0])
def test_spectral_samples_reject_a_non_finite_or_negative_noise(actual_noise):
    with pytest.raises(ValueError, match="actual_noise must be finite and nonnegative"):
        SpectralSamples([1, 2], actual_noise)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_spectral_samples_reject_non_finite_values(bad):
    # mp_recover relies on this check and makes none of its own
    train = SpikeTrain(amplitudes=[1.0, 2.0], nodes=[0.1, 0.3])
    values = sample_spectrum(train, 8, 0.0, 0).values.copy()
    values[3] = bad
    with pytest.raises(ValueError, match="^samples must be finite$"):
        SpectralSamples(values, 0.0)


def test_samples_json_noise_levels_default_to_zero(tmp_path, monkeypatch):
    samples = _samples_read(tmp_path, monkeypatch, {"values": [[1, 0], [0, 1]]})
    np.testing.assert_array_equal(samples.values, [1, 1j])
    assert samples.actual_noise == 0.0


@pytest.mark.parametrize("noise_bound", [1e-9, -1, "abc"])
def test_samples_json_ignores_a_stored_noise_bound(tmp_path, monkeypatch, noise_bound):
    # files written before the bound was dropped still load, whatever it holds
    obj = {"values": [[1, 0], [0, 1]], "noise_bound": noise_bound}
    samples = _samples_read(tmp_path, monkeypatch, obj)
    np.testing.assert_array_equal(samples.values, [1, 1j])
    assert samples.actual_noise == 0.0


@pytest.mark.parametrize("actual_noise", [1e-9, math.nan, -1.0])
def test_samples_json_ignores_a_stored_actual_noise(tmp_path, monkeypatch, actual_noise):
    # the estimator reads the values alone, so a stored noise level is dropped,
    # even one that SpectralSamples would reject
    obj = {"values": [[1, 0], [0, 1]], "actual_noise": actual_noise}
    samples = _samples_read(tmp_path, monkeypatch, obj)
    np.testing.assert_array_equal(samples.values, [1, 1j])
    assert samples.actual_noise == 0.0


def test_cluster_geometry_validation():
    with pytest.raises(ValueError):
        ClusterGeometry(p=1, d=3, h=0.1, T=1.0, tau=0.5, eta=0.1)
    with pytest.raises(ValueError):
        ClusterGeometry(p=2, d=3, h=2.0, T=1.0, tau=0.5, eta=0.1)
    with pytest.raises(ValueError):
        ClusterGeometry(p=2, d=3, h=0.1, T=1.0, tau=0.5, eta=0.1, kappa=3)
    with pytest.raises(ValueError, match=r"^tau must lie in \(0, 1\]$"):
        ClusterGeometry(p=2, d=3, h=0.1, T=1.0, tau=0.0, eta=0.1)
    with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1\]$"):
        ClusterGeometry(p=2, d=3, h=0.1, T=1.0, tau=0.5, eta=1.5)


# Each call takes its counts through `count`: p = 2 (and d = 3, kappa = 1
# where the call has them); prony_solve and mp_recover take the order d = 2,
# and phase_transition_sweep only its node_index = 2.
_COUNT_CALLS = {
    "standard_cluster_geometry": lambda count: standard_cluster_geometry(
        count(2), count(3), 0.1
    ),
    "ClusterGeometry": lambda count: ClusterGeometry(
        p=count(2), d=count(3), h=0.1, T=1.0, tau=1.0, eta=0.5, kappa=count(1)
    ),
    "ClusterGeometry.from_nodes": lambda count: ClusterGeometry.from_nodes(
        [0.0, 0.01, 0.3], count(2), count(1)
    ),
    "worst_case_signal": lambda count: worst_case_signal(
        SpikeTrain([1.0, -1.0, 1.0], [0.0, 0.01, 0.3]), count(2), 1e-9, count(1)
    ),
    "displacement_scaling_probe": lambda count: displacement_scaling_probe(count(2), [0.1]),
    "mp_recover": lambda count: mp_recover(
        sample_spectrum(SpikeTrain([1.0, -1.0], [0.1, 0.3]), 8, 0.0, 0), count(2)
    ),
    "prony_solve": lambda count: prony_solve(
        prony_map([1.0, -1.0], [np.exp(0.2j), np.exp(0.6j)], 4), count(2)
    ),
    "phase_transition_sweep": lambda count: phase_transition_sweep(
        2, 3, (2e-3, 1e-1), (32, 128), (1e-12, 1.0), 40, "S1", 1, node_index=count(2)
    ),
}


@pytest.mark.parametrize("call", _COUNT_CALLS.values(), ids=list(_COUNT_CALLS))
def test_a_fractional_count_raises_type_error(call):
    # a float count is rejected before any work, even an integral one;
    # numpy integers are counts
    call(np.int64)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(float)


def _geometry_reference(nodes, p, kappa):
    """The CLI's former hand derivation of a cluster geometry, with eta taken
    over every pair that holds a non-cluster node as ClusterGeometry's
    docstring defines it; the reference for ClusterGeometry.from_nodes:
    (p, d, h, T, tau, eta, kappa)."""
    nodes = np.asarray(nodes, dtype=float)
    cluster = nodes[kappa - 1 : kappa - 1 + p]
    h = float(cluster[-1] - cluster[0])
    T = float(nodes[-1] - nodes[0])
    tau = float(np.diff(cluster).min() / h)
    seps = _noncluster_separations(nodes, p, kappa)
    eta = float(seps.min() / T) if seps.size else 1.0
    return (p, len(nodes), h, T, min(1.0, tau), min(1.0, eta), kappa)


def _noncluster_separations(nodes, p, kappa):
    """|x_j - x_k| over every pair j < k that holds a non-cluster node."""
    d = len(nodes)
    in_cluster = np.zeros(d, dtype=bool)
    in_cluster[kappa - 1 : kappa - 1 + p] = True
    pairs = ~np.logical_and.outer(in_cluster, in_cluster) & np.triu(np.ones((d, d), bool), 1)
    return np.abs(np.subtract.outer(nodes, nodes))[pairs]


def _assert_from_nodes_matches_reference(nodes, p, kappa):
    geometry = ClusterGeometry.from_nodes(nodes, p, kappa)
    got = (geometry.p, geometry.d, geometry.h, geometry.T,
           geometry.tau, geometry.eta, geometry.kappa)
    want = _geometry_reference(nodes, p, kappa)
    assert [type(v) for v in got] == [type(v) for v in want]
    assert [v.hex() if isinstance(v, float) else v for v in got] == [
        v.hex() if isinstance(v, float) else v for v in want
    ]


def test_from_nodes_matches_the_hand_derivation_bit_for_bit():
    rng = np.random.default_rng(14)
    compared = 0
    for _ in range(40):
        d = int(rng.integers(2, 9))
        steps = np.exp(rng.uniform(np.log(1e-4), np.log(1.0), d - 1))
        nodes = rng.uniform(-1.0, 1.0) + np.concatenate([[0.0], np.cumsum(steps)])
        for p in range(2, d + 1):
            for kappa in range(1, d - p + 2):
                _assert_from_nodes_matches_reference(nodes, p, kappa)
                compared += 1
    assert compared > 400


def test_from_nodes_eta_is_the_closest_noncluster_pair():
    # the pair outside the cluster, not the cluster extent, sets eta
    geometry = ClusterGeometry.from_nodes([0.0, 0.01, 0.0101], 2)
    assert geometry.eta * geometry.T == pytest.approx(1e-4, rel=1e-12)
    assert ClusterGeometry.from_nodes([0.0, 0.3], 2).eta == 1.0
    rng = np.random.default_rng(16)
    for _ in range(60):
        d = int(rng.integers(2, 9))
        steps = np.exp(rng.uniform(np.log(1e-6), np.log(1.0), d - 1))
        nodes = rng.uniform(-1.0, 1.0) + np.concatenate([[0.0], np.cumsum(steps)])
        for p in range(2, d + 1):
            for kappa in range(1, d - p + 2):
                geometry = ClusterGeometry.from_nodes(nodes, p, kappa)
                seps = _noncluster_separations(nodes, p, kappa)
                if p == d:
                    assert seps.size == 0 and geometry.eta == 1.0
                    continue
                bound = geometry.eta * geometry.T
                assert (seps >= bound * (1 - 1e-12)).all()
                assert seps.min() == pytest.approx(bound, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "p, kappa, nodes, message",
    [
        (0, 1, None, "2 <= p <= d"),
        (1, 1, None, "2 <= p <= d"),
        (5, 1, None, "2 <= p <= d"),
        (2, 0, None, "kappa must index"),
        (2, 4, None, "kappa must index"),
        (3, 3, None, "kappa must index"),
        # coincident, decreasing or NaN nodes: a ValueError, not a division by 0
        (2, 1, [0.0, 0.0, 0.0], "nodes must be strictly increasing"),
        (2, 1, [1.0, 1.0, 0.0], "nodes must be strictly increasing"),
        (2, 1, [1.0, 0.0, 1.0], "nodes must be strictly increasing"),
        (3, 1, [0.0, 1.0, 0.0], "nodes must be strictly increasing"),
        (2, 1, [2.0, 1.0, 0.0], "nodes must be strictly increasing"),
        (2, 1, [0.0, math.nan, 1.0], "nodes must be strictly increasing"),
    ],
)
def test_from_nodes_rejects_a_cluster_it_cannot_pick_out(p, kappa, nodes, message):
    with pytest.raises(ValueError, match=message):
        ClusterGeometry.from_nodes(nodes or [0.0, 0.3, 0.301, 0.6], p, kappa)


def test_array_holding_results_compare_by_identity():
    # The dataclasses holding arrays compare by identity: == returns a bool
    # for d >= 2 instead of raising on an ambiguous array truth value.
    from spikesr.matrix_pencil import mp_recover
    from spikesr.prony import prony_solve
    from spikesr.worstcase import worst_case_signal

    def train():
        return SpikeTrain(amplitudes=[1.0, -1.0, 1.0], nodes=[0.0, 0.01, 0.3])

    samples = sample_spectrum(train(), 16, 0.0, 0)
    makers = [
        train,
        lambda: sample_spectrum(train(), 16, 0.0, 0),
        lambda: prony_solve(prony_map(train().amplitudes, train().nodes, 6), 3),
        lambda: mp_recover(samples, 3),
        lambda: worst_case_signal(train(), 2, 1e-9),
    ]
    for make in makers:
        first, second = make(), make()
        assert (first == first) is True
        assert (first == second) is False
        assert (first != second) is True


@pytest.mark.parametrize(
    "amplitudes, nodes",
    [
        ([1.0, 2.0], [[0.1, 0.2]]),
        ([[1.0, 2.0]], [0.1, 0.2]),
        ([[1.0], [2.0]], [[0.1], [0.2]]),
    ],
    ids=["2d-nodes", "2d-amplitudes", "both-2d"],
)
def test_spike_train_rejects_two_dimensional_values(amplitudes, nodes):
    with pytest.raises(ValueError) as excinfo:
        SpikeTrain(amplitudes=amplitudes, nodes=nodes)
    assert str(excinfo.value) == "expected a one-dimensional sequence"


def test_frozen_arrays_leave_no_blocks_behind():
    # An array frozen by setflags leaves no block held once it is gone;
    # assigning arr.flags.writeable = False left some at the assigning line.
    def build(count):
        for _ in range(count):
            SpikeTrain(amplitudes=[1.0, 2.0], nodes=[0.1, 0.3])
            prony_solve(np.array([1.0, 0.5 + 0.1j, 0.3 + 0.2j, 0.1 + 0.05j]), 2)

    build(10)
    gc.collect()
    package = [tracemalloc.Filter(True, os.path.join(os.path.dirname(spikesr.__file__), "*"))]
    tracemalloc.start()
    try:
        build(3)
        before = tracemalloc.take_snapshot().filter_traces(package)
        build(300)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(package)
    finally:
        tracemalloc.stop()
    grown = [stat for stat in after.compare_to(before, "lineno") if stat.size_diff > 0]
    assert grown == []
