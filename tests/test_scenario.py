"""Tests for the scenario configuration: serialization round trips, strict
key checking, the reproducibility hash, and the link-layer noise mapping."""

from dataclasses import replace
from pathlib import Path

import pytest

from spoofdet.baselines import SdConfig
from spoofdet.errors import ConfigurationError
from spoofdet.extractor import ExtractorConfig
from spoofdet.link import (
    LinkConfig,
    fd_noise_variance,
    td_equivalent_noise_variance,
)
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
    extractor=ExtractorConfig(max_iterations=50, threshold_scale=5.0),
    similarity_threshold=0.8,
    subspace=SdConfig(noise_floor_multiple=2.0, samples_per_subframe=3),
    trials=12,
    master_seed=99,
    output_dir="elsewhere",
    workers=2,
)


# What to_yaml writes and what config_hash returns, pinned: a change to the
# section or key order, or to the set of hashed fields, shows up here.
DEFAULT_YAML = """\
array:
  num_antennas: 64
  element_spacing_wavelengths: 0.5
users:
  num_users: 16
  victim_index: 0
radio:
  snr_db: 5.0
  jsr_db: 0.0
  link_gain: 5.0
  victim_power: 1.0
pilot:
  sequence_length: 139
  shift_size: 5
  rb_count: 16
  samples_per_rb: 12
channel:
  num_taps: 4
  tap_duration_ns: 240.0
  cluster_table: null
geometry:
  inner_radius_m: 100.0
  outer_radius_m: 120.0
extractor:
  max_iterations: 200
  step_size: 0.1
  threshold_scale: 15.0
  tolerance: 1.0e-06
  max_backtracks: 20
detector:
  similarity_threshold: 0.92
subspace:
  noise_floor_multiple: 3.0
  relative_floor: 1.0e-09
  samples_per_subframe: 5
experiment:
  trials: 500
  master_seed: 2026
  output_dir: results
  workers: 1
"""

CUSTOM_YAML = """\
array:
  num_antennas: 8
  element_spacing_wavelengths: 0.4
users:
  num_users: 4
  victim_index: 2
radio:
  snr_db: -2.5
  jsr_db: 3.0
  link_gain: 2.0
  victim_power: 2.5
pilot:
  sequence_length: 31
  shift_size: 6
  rb_count: 8
  samples_per_rb: 10
channel:
  num_taps: 3
  tap_duration_ns: 200.0
  cluster_table: profile.yaml
geometry:
  inner_radius_m: 50.0
  outer_radius_m: 80.0
extractor:
  max_iterations: 50
  step_size: 0.1
  threshold_scale: 5.0
  tolerance: 1.0e-06
  max_backtracks: 20
detector:
  similarity_threshold: 0.8
subspace:
  noise_floor_multiple: 2.0
  relative_floor: 1.0e-09
  samples_per_subframe: 3
experiment:
  trials: 12
  master_seed: 99
  output_dir: elsewhere
  workers: 2
"""


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
            {"detector": {"update_policy": "always"}},
            {"extractor": {"dimension": 24}},
            {"extractor": {"divergence_factor": 1e6}},
        ],
    )
    def test_rejected(self, raw):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict(raw)

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"radio": [1, 2]})


class TestWrongTypes:
    @pytest.mark.parametrize(
        "raw",
        [
            {"experiment": {"trials": "5"}},
            {"extractor": {"max_iterations": "9"}},
            {"radio": {"snr_db": "5"}},
            {"array": {"num_antennas": 8.5}},
            {"subspace": {"samples_per_subframe": 2.5}},
            {"experiment": {"workers": True}},
            {"channel": {"tap_duration_ns": float("nan")}},
            {"radio": {"link_gain": float("inf")}},
            {"extractor": {"step_size": float("nan")}},
            {"channel": {"cluster_table": 5}},
            {"experiment": {"output_dir": 5}},
        ],
    )
    def test_rejected(self, raw):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict(raw)


class TestConfigHash:
    def test_ignores_where_and_how_trials_run(self):
        base = ScenarioConfig()
        assert replace(base, workers=4).config_hash() == (
            base.config_hash()
        )
        assert replace(base, output_dir="other").config_hash() == (
            base.config_hash()
        )

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ({"radio": {"snr_db": 5}}, ScenarioConfig()),
            ({"extractor": {"step_size": 1}},
             ScenarioConfig(extractor=ExtractorConfig(step_size=1.0))),
            ({"array": {"num_antennas": 64.0}}, ScenarioConfig()),
            ({"channel": {"cluster_table": Path("profile.yaml")}},
             ScenarioConfig(cluster_table="profile.yaml")),
            ({"experiment": {"output_dir": Path("elsewhere")}},
             ScenarioConfig(output_dir="elsewhere")),
        ],
    )
    def test_equal_configs_hash_equal(self, raw, expected):
        loaded = ScenarioConfig.from_dict(raw)
        assert loaded == expected
        assert loaded.config_hash() == expected.config_hash()

    def test_follows_the_operating_point(self):
        base = ScenarioConfig()
        assert replace(base, snr_db=6.0).config_hash() != (
            base.config_hash()
        )


class TestPinnedOutput:
    CASES = [
        (ScenarioConfig(), DEFAULT_YAML, "2ecf5bf78bf8d972"),
        (CUSTOM, CUSTOM_YAML, "6868fc4bcc2ffffe"),
    ]

    @pytest.mark.parametrize("cfg, text, digest", CASES,
                             ids=["default", "custom"])
    def test_yaml_text(self, cfg, text, digest, tmp_path):
        path = tmp_path / "scenario.yaml"
        cfg.to_yaml(path)
        assert path.read_text() == text

    @pytest.mark.parametrize("cfg, text, digest", CASES,
                             ids=["default", "custom"])
    def test_config_hash(self, cfg, text, digest):
        assert cfg.config_hash() == digest


class TestLinkConfig:
    @pytest.mark.parametrize("cfg", [ScenarioConfig(), CUSTOM])
    def test_reproduces_tap_noise_variance(self, cfg):
        link = LinkConfig.for_scenario(cfg)
        assert link.n_subcarriers == cfg.sequence_length
        assert link.n_samples == cfg.n_samples
        # The tap-form estimate noise is the frequency-domain noise over N.
        assert fd_noise_variance(link) / cfg.sequence_length == (
            pytest.approx(cfg.tap_noise_variance, rel=1e-12)
        )
        # The receive noise of the snapshot and energy shortcuts is the
        # chain's time-domain injection variance.
        assert cfg.receive_noise_variance == pytest.approx(
            td_equivalent_noise_variance(link), rel=1e-12
        )
