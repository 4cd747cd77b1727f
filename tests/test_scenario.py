"""Tests for the scenario configuration: serialization round trips, strict
key checking, the reproducibility hash, and the link-layer noise mapping."""

import pytest

from spoofdet.baselines import SdConfig
from spoofdet.errors import ConfigurationError
from spoofdet.extractor import ExtractorConfig
from spoofdet.link import fd_noise_variance
from spoofdet.scenario import ScenarioConfig

# Every section set away from its default, so a field dropped on the way
# out or in shows up as an inequality.
CUSTOM = ScenarioConfig(
    num_antennas=8,
    num_users=4,
    num_taps=3,
    sequence_length=31,
    shift_size=6,
    rb_count=8,
    samples_per_rb=10,
    snr_db=-2.5,
    jsr_db=3.0,
    link_gain=2.0,
    victim_power=2.5,
    victim_index=2,
    inner_radius_m=50.0,
    outer_radius_m=80.0,
    element_spacing_wavelengths=0.4,
    tap_duration_ns=200.0,
    cluster_table="profile.yaml",
    extractor=ExtractorConfig(max_iterations=50, threshold_scale=5.0,
                              dimension=24),
    similarity_threshold=0.8,
    update_policy="always",
    subspace=SdConfig(noise_floor_multiple=2.0, samples_per_subframe=3),
    trials=12,
    master_seed=99,
    output_dir="elsewhere",
    workers=2,
)


class TestRoundTrip:
    @pytest.mark.parametrize("cfg", [ScenarioConfig(), CUSTOM])
    def test_dict(self, cfg):
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("cfg", [ScenarioConfig(), CUSTOM])
    def test_yaml(self, cfg, tmp_path):
        path = tmp_path / "scenario.yaml"
        cfg.to_yaml(path)
        assert ScenarioConfig.from_yaml(path) == cfg

    def test_empty_yaml_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert ScenarioConfig.from_yaml(path) == ScenarioConfig()


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "raw",
        [
            {"energy": {"threshold": 1.0, "calibration": "sweep"}},
            {"bogus": {}},
            {"channel": {"rays_per_cluster": 20}},
            {"radio": {"snr": 5.0}},
            {"extractor": {"gradient_mode": "analytic"}},
            {"extractor": {"probe_family": "gaussian"}},
            {"subspace": {"baseline_dimension": 16}},
        ],
    )
    def test_rejected(self, raw):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict(raw)

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"radio": [1, 2]})


class TestConfigHash:
    def test_ignores_where_and_how_trials_run(self):
        base = ScenarioConfig()
        assert base.with_overrides(workers=4).config_hash() == (
            base.config_hash()
        )
        assert base.with_overrides(output_dir="other").config_hash() == (
            base.config_hash()
        )

    def test_follows_the_operating_point(self):
        base = ScenarioConfig()
        assert base.with_overrides(snr_db=6.0).config_hash() != (
            base.config_hash()
        )


class TestLinkConfig:
    @pytest.mark.parametrize("cfg", [ScenarioConfig(), CUSTOM])
    def test_reproduces_tap_noise_variance(self, cfg):
        link = cfg.link_config()
        assert link.n_subcarriers == cfg.sequence_length
        assert link.n_samples == cfg.n_samples
        # The tap-form estimate noise is the frequency-domain noise over N.
        assert fd_noise_variance(link) / cfg.sequence_length == (
            pytest.approx(cfg.tap_noise_variance, rel=1e-12)
        )
