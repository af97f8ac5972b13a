import math

import numpy as np
import pytest

from spikesr.signal import (
    ClusterGeometry,
    SpectralSamples,
    SpikeTrain,
    clean_spectrum,
    fourier_at,
    make_clustered_nodes,
    moments,
    sample_spectrum,
    scale,
    shift,
    standard_cluster_geometry,
    validate_cluster,
)


def test_spike_train_invariants():
    with pytest.raises(ValueError):
        SpikeTrain(amplitudes=[1.0, 2.0], nodes=[0.5, 0.5])
    with pytest.raises(ValueError):
        SpikeTrain(amplitudes=[1.0], nodes=[0.1, 0.2])
    with pytest.raises(ValueError):
        SpikeTrain(amplitudes=[], nodes=[])
    train = SpikeTrain(amplitudes=[1.0, -2.0], nodes=[-0.3, 0.4])
    assert train.d == 2
    assert train.sup_norm == 2.0


def test_fourier_single_spike_at_origin():
    train = SpikeTrain(amplitudes=[1.0], nodes=[0.0])
    for s in (0.0, 0.37, -12.5):
        assert fourier_at(train, s) == pytest.approx(1.0 + 0.0j)


def test_fourier_blown_up_pair_sample():
    # nodes (1/10, 2/10) blown up by rate 10/3 become (1/3, 2/3); the first
    # unit-rate sample is exp(2 pi i/3) + exp(4 pi i/3) = -1.
    train = SpikeTrain(amplitudes=[1.0, 1.0], nodes=[0.1, 0.2])
    blown = scale(train, 3.0 / 10.0)
    np.testing.assert_allclose(blown.nodes, [1 / 3, 2 / 3], atol=1e-15)
    assert fourier_at(blown, -1.0) == pytest.approx(-1.0 + 0.0j, abs=1e-12)
    samples = sample_spectrum(blown, 4, 0.0, 0)
    np.testing.assert_allclose(samples.values, [2, -1, -1, 2], atol=1e-12)


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
        assert (samples.noise_bound, samples.actual_noise) == (0.0, 0.0)


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


def test_sample_spectrum_real_noise():
    train = SpikeTrain(amplitudes=[1.0], nodes=[0.2])
    samples = sample_spectrum(train, 16, 1e-2, 7, noise_kind="real")
    noise = samples.values - clean_spectrum(train, 16)
    assert np.abs(noise.imag).max() == 0.0
    assert np.abs(noise.real).max() <= 1e-2
    with pytest.raises(ValueError):
        sample_spectrum(train, 4, 1e-2, 0, noise_kind="bogus")


def test_sample_sign_convention_matches_fourier():
    train = SpikeTrain(amplitudes=[1.5, -0.5 + 2j], nodes=[-0.2, 0.35])
    samples = sample_spectrum(train, 6, 0.0, 0)
    for k in range(6):
        assert samples.values[k] == pytest.approx(fourier_at(train, -float(k)))


def test_moments_examples():
    np.testing.assert_allclose(
        moments(SpikeTrain(amplitudes=[1.0], nodes=[0.0]), 3), [1, 0, 0]
    )
    np.testing.assert_allclose(
        moments(SpikeTrain(amplitudes=[1.0, -1.0], nodes=[-1.0, 1.0]), 4),
        [0, -2, 0, -2],
    )
    np.testing.assert_allclose(
        moments(SpikeTrain(amplitudes=[2.0], nodes=[0.5]), 3), [2, 1, 0.5]
    )


def test_moments_are_taylor_coefficients_of_transform():
    train = SpikeTrain(amplitudes=[1.0, 2.0, -0.5], nodes=[-0.4, 0.1, 0.3])
    m = moments(train, 25)
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


def test_make_clustered_nodes_rejects_wide_cluster():
    with pytest.raises(ValueError):
        standard_cluster_geometry(2, 3, math.pi)
    geometry = ClusterGeometry(p=2, d=3, h=1.0, T=4.0, tau=1.0, eta=0.25, kappa=2)
    with pytest.raises(ValueError):
        make_clustered_nodes(geometry)  # layout requires kappa == 1


def test_validate_cluster_examples():
    tight = ClusterGeometry(p=2, d=2, h=0.01, T=1.0, tau=1.0, eta=0.005, kappa=1)
    assert validate_cluster([0.0, 0.01], tight)
    assert not validate_cluster([0.0, 0.02], tight)
    geometry = standard_cluster_geometry(2, 3, 0.01)
    assert validate_cluster(make_clustered_nodes(geometry), geometry)


def test_validate_cluster_randomized_layouts():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = int(rng.integers(2, 5))
        d = int(rng.integers(p, p + 4))
        h = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5))))
        geometry = standard_cluster_geometry(p, d, h)
        assert validate_cluster(make_clustered_nodes(geometry), geometry)


def test_shift_and_scale_examples():
    shifted = shift(SpikeTrain(amplitudes=[1.0], nodes=[0.3]), 0.3)
    np.testing.assert_allclose(shifted.nodes, [0.0])
    scaled = scale(SpikeTrain(amplitudes=[1.0, 1.0], nodes=[-1.0, 1.0]), 2.0)
    np.testing.assert_allclose(scaled.nodes, [-0.5, 0.5])
    with pytest.raises(ValueError):
        scale(scaled, 0.0)


def test_scale_round_trip():
    train = SpikeTrain(amplitudes=[1.0, 2.0], nodes=[-0.7, 1.3])
    back = scale(scale(train, 7.3), 1 / 7.3)
    np.testing.assert_allclose(back.nodes, train.nodes, rtol=1e-12)


def test_shift_preserves_transform_magnitude():
    rng = np.random.default_rng(3)
    train = SpikeTrain(amplitudes=[1.0, -2.0 + 1j], nodes=[-0.2, 0.5])
    shifted = shift(train, 0.37)
    for s in rng.uniform(-5, 5, 10):
        assert abs(fourier_at(shifted, s)) == pytest.approx(
            abs(fourier_at(train, s)), rel=1e-12
        )


def test_json_round_trips():
    train = SpikeTrain(amplitudes=[1.0 + 2j, -0.5], nodes=[-0.1, 0.8])
    again = SpikeTrain.from_json_dict(train.to_json_dict())
    np.testing.assert_array_equal(again.amplitudes, train.amplitudes)
    np.testing.assert_array_equal(again.nodes, train.nodes)

    samples = sample_spectrum(train, 5, 1e-4, 11)
    again = SpectralSamples.from_json_dict(samples.to_json_dict())
    np.testing.assert_array_equal(again.values, samples.values)
    assert again.noise_bound == samples.noise_bound
    assert again.actual_noise == samples.actual_noise


def test_cluster_geometry_validation():
    with pytest.raises(ValueError):
        ClusterGeometry(p=1, d=3, h=0.1, T=1.0, tau=0.5, eta=0.1)
    with pytest.raises(ValueError):
        ClusterGeometry(p=2, d=3, h=2.0, T=1.0, tau=0.5, eta=0.1)
    with pytest.raises(ValueError):
        ClusterGeometry(p=2, d=3, h=0.1, T=1.0, tau=0.5, eta=0.1, kappa=3)
