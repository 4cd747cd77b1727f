"""Tests for the scenario configuration: serialization round trips, strict
key checking, the reproducibility hash, and the link-layer noise mapping."""

import re
from dataclasses import replace
from pathlib import Path, PurePosixPath

import numpy as np
import pytest
import yaml

from spoofdet.errors import ConfigurationError
from spoofdet.experiments import run_trials
from spoofdet.extractor import ExtractorConfig
from spoofdet.link import simulate_subframe
from spoofdet.scenario import PILOT_SHIFT, ScenarioConfig

# Every field set away from its default, so a field dropped on the way
# out or in shows up as an inequality.
CUSTOM = ScenarioConfig(
    num_antennas=8,
    num_users=4,
    num_taps=3,
    sequence_length=31,
    rb_count=8,
    snr_db=-2.5,
    jsr_db=3.0,
    cluster_table="profile.yaml",
    threshold_scale=5.0,
    tolerance=0.01,
    trials=12,
    master_seed=99,
    workers=2,
)


# What to_dict returns and what config_hash returns, pinned: a change to the
# key order, to the set of hashed fields or to how the cluster table is
# hashed shows up here.  The default hashes the built-in table's numbers;
# the custom config's "profile.yaml" is no file, so it hashes as its path.
DEFAULT_ITEMS = [
    ("num_antennas", 64),
    ("num_users", 16),
    ("num_taps", 4),
    ("sequence_length", 139),
    ("rb_count", 16),
    ("snr_db", 5.0),
    ("jsr_db", 0.0),
    ("cluster_table", None),
    ("threshold_scale", 15.0),
    ("tolerance", 0.001),
    ("trials", 500),
    ("master_seed", 2026),
    ("workers", 1),
]

CUSTOM_ITEMS = [
    ("num_antennas", 8),
    ("num_users", 4),
    ("num_taps", 3),
    ("sequence_length", 31),
    ("rb_count", 8),
    ("snr_db", -2.5),
    ("jsr_db", 3.0),
    ("cluster_table", "profile.yaml"),
    ("threshold_scale", 5.0),
    ("tolerance", 0.01),
    ("trials", 12),
    ("master_seed", 99),
    ("workers", 2),
]


class TestRoundTrip:
    @pytest.mark.parametrize("cfg", [ScenarioConfig(), CUSTOM])
    def test_dict(self, cfg):
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("cfg", [ScenarioConfig(), CUSTOM])
    def test_yaml(self, cfg, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg.to_dict(), sort_keys=False))
        # A relative cluster table is read beside the file.
        table = cfg.cluster_table and str(tmp_path / cfg.cluster_table)
        assert ScenarioConfig.from_yaml(path) == replace(
            cfg, cluster_table=table
        )

    def test_empty_yaml_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert ScenarioConfig.from_yaml(path) == ScenarioConfig()


class TestClusterTablePath:
    """A relative ``cluster_table`` in a scenario file names a file beside
    the scenario file, wherever the process runs; an absolute one, and any
    path given to ``from_dict``, is stored as given.  ``config_hash`` hashes
    the table the path names, not the path."""

    TABLE = ("delays_ns: [0.0, 245.0]\npowers_db: [0.0, -3.0]\n"
             "azimuths_deg: [0.0, 40.0]\nspreads_deg: [2.0, 2.0]\n")
    CELL = dict(num_antennas=8, num_users=4, sequence_length=31, rb_count=8,
                trials=8, master_seed=7)

    def write(self, directory, table):
        directory.mkdir()
        (directory / "table.yaml").write_text(self.TABLE)
        path = directory / "scenario.yaml"
        path.write_text(yaml.safe_dump({**self.CELL, "cluster_table": table}))
        return path

    def test_relative_path_is_read_beside_the_file(self, tmp_path,
                                                   monkeypatch):
        self.write(tmp_path / "profiles", "table.yaml")
        monkeypatch.chdir(tmp_path)
        cfg = ScenarioConfig.from_yaml("profiles/scenario.yaml")
        assert cfg.cluster_table == "profiles/table.yaml"
        records = run_trials(cfg)
        assert not all(record.failed for record in records)
        beside = ScenarioConfig(
            **self.CELL, cluster_table=str(tmp_path / "profiles/table.yaml")
        )
        assert records == run_trials(beside)

    def test_absolute_path_and_from_dict_keep_it(self, tmp_path):
        table = str(tmp_path / "profiles" / "table.yaml")
        path = self.write(tmp_path / "profiles", table)
        assert ScenarioConfig.from_yaml(path).cluster_table == table
        assert ScenarioConfig.from_dict(
            {"cluster_table": "table.yaml"}
        ).cluster_table == "table.yaml"

    def test_one_table_hashes_alike_under_every_path(self, tmp_path,
                                                     monkeypatch):
        # Loaded from the parent directory, from beside the file and by its
        # absolute path, and as a copy in another directory.  A relative
        # path is read from the working directory, so each load is hashed
        # where it was made.
        absolute = self.write(tmp_path / "profiles", "table.yaml")
        copy = self.write(tmp_path / "copy", "table.yaml")
        loads = {}
        for directory, path in [(tmp_path, "profiles/scenario.yaml"),
                                (tmp_path / "profiles", "scenario.yaml"),
                                (tmp_path, absolute), (tmp_path, copy)]:
            monkeypatch.chdir(directory)
            cfg = ScenarioConfig.from_yaml(path)
            loads[cfg.cluster_table] = cfg.config_hash()
        assert len(loads) == 4
        assert len(set(loads.values())) == 1

    def test_one_number_changes_the_hash(self, tmp_path):
        path = self.write(tmp_path / "profiles", "table.yaml")
        before = ScenarioConfig.from_yaml(path).config_hash()
        (tmp_path / "profiles" / "table.yaml").write_text(
            self.TABLE.replace("40.0", "41.0")
        )
        assert ScenarioConfig.from_yaml(path).config_hash() != before

    def test_the_default_table_hashes_as_a_file_of_its_numbers(self,
                                                               tmp_path):
        table = tmp_path / "default.yaml"
        table.write_text(
            "delays_ns: [0.0, 35.0, 245.0, 610.0]\n"
            "powers_db: [0.0, -13.5, -18.8, -21.0]\n"
            "azimuths_deg: [0.0, 28.0, -36.0, 54.0]\n"
            "spreads_deg: [1.0, 3.0, 3.0, 3.0]\n"
            "ricean_k_db: 13.3\n"
        )
        assert ScenarioConfig(cluster_table=str(table)).config_hash() == (
            ScenarioConfig().config_hash()
        )

    def test_a_path_that_gives_no_table_hashes_as_the_path(self, tmp_path):
        # A run whose every trial fails on the table still writes its
        # summary, which holds the hash.
        (tmp_path / "invalid.yaml").write_text("delays_ns: [0.0]\n")
        hashes = {
            ScenarioConfig(cluster_table=str(tmp_path / name)).config_hash()
            for name in ("missing.yaml", "other-missing.yaml", "invalid.yaml")
        }
        assert len(hashes) == 3


class TestUnreadableYaml:
    """A file ``from_yaml`` cannot turn into a config raises
    ``ConfigurationError``, as ``load_cluster_table`` raises its
    ``ClusterTableError`` for the same file."""

    CONTENTS = {
        "missing": None,
        # A valid file but for its Latin-1 comment.
        "not-utf8": b"snr_db: 5.0  # caf\xe9\n",
        "invalid-yaml": b"snr_db: [5.0\n  : :\n",
    }

    @pytest.mark.parametrize("kind", CONTENTS)
    def test_says_which_file(self, tmp_path, kind):
        path = tmp_path / "scenario.yaml"
        if self.CONTENTS[kind] is not None:
            path.write_bytes(self.CONTENTS[kind])
        with pytest.raises(ConfigurationError, match=f"file {path}"):
            ScenarioConfig.from_yaml(path)

    def test_root_must_be_a_mapping(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("- snr_db\n- 5.0\n")
        with pytest.raises(ConfigurationError, match=re.escape(
            f"file {path}: configuration root must be a mapping"
        )):
            ScenarioConfig.from_yaml(path)

    @pytest.mark.parametrize("text, error", [
        ("snr: 5.0\n", "unknown configuration keys: ['snr']"),
        ("snr_db: '5'\n", "snr_db must be a number"),
        ("num_users: 28\n", "supplies only 27"),
        # A file in the former nested layout.
        ("radio: {snr_db: 5.0}\n", "unknown configuration keys: ['radio']"),
        # A key YAML reads as an int beside an unknown string key.
        ("1: 2\nbogus: 3\n", "unknown configuration keys: ['bogus', 1]"),
        # The two conventions that are constants now.
        ("shift_size: 5\n", "unknown configuration keys: ['shift_size']"),
        ("tap_duration_ns: 240.0\n",
         "unknown configuration keys: ['tap_duration_ns']"),
    ], ids=["key", "value", "capacity", "nested", "mixed-key-types",
            "shift-size", "tap-duration"])
    def test_rejected_contents_name_the_file(self, tmp_path, text, error):
        # Whatever from_dict rejects in a file is raised with the file's
        # path and as the same exception type.
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        with pytest.raises(ConfigurationError) as raised:
            ScenarioConfig.from_yaml(path)
        assert str(raised.value).startswith(f"configuration file {path}: ")
        assert error in str(raised.value)
        with pytest.raises(type(raised.value)):
            ScenarioConfig.from_dict(yaml.safe_load(text))


class TestUnknownKeys:
    # Each retired setting under its field-style name, then each section of
    # the former nested layout holding a field it held, then the sequential
    # detector's threshold, now an argument of the entry points that run
    # it: the error names every key of the mapping, so no case passes for
    # another key's sake.
    @pytest.mark.parametrize(
        "raw",
        [
            {"threshold": 1.0, "calibration": "sweep"},
            {"bogus": {}},
            {"rays_per_cluster": 20},
            {"snr": 5.0},
            {"gradient_mode": "analytic"},
            {"probe_family": "gaussian"},
            {"baseline_dimension": 16},
            {"update_policy": "always"},
            {"dimension": 24},
            {"divergence_factor": 1e6},
            {"victim_power": 1.0},
            {"inner_radius_m": 100.0},
            {"victim_index": 0},
            {"link_gain": 5.0},
            {"samples_per_rb": 12},
            {"relative_floor": 1e-9},
            {"samples_per_subframe": 5},
            {"element_spacing_wavelengths": 0.5},
            {"step_size": 0.1},
            {"output_dir": "results"},
            {"noise_floor_multiple": 3.0},
            {"max_iterations": 200},
            {"max_backtracks": 20},
            {"shift_size": 5},
            {"tap_duration_ns": 240.0},
            {"array": {"num_antennas": 64}},
            {"users": {"num_users": 16}},
            {"radio": {"snr_db": 5.0}},
            {"pilot": {"rb_count": 16}},
            {"channel": {"num_taps": 4}},
            {"extractor": {"tolerance": 1e-3}},
            {"detector": {"similarity_threshold": 0.92}},
            {"experiment": {"trials": 500}},
            {"similarity_threshold": 0.92},
        ],
    )
    def test_rejected(self, raw):
        with pytest.raises(ConfigurationError) as raised:
            ScenarioConfig.from_dict(raw)
        assert str(raised.value) == (
            f"unknown configuration keys: {sorted(raw)}"
        )


class TestWrongTypes:
    @pytest.mark.parametrize(
        "raw",
        [
            {"trials": "5"},
            {"threshold_scale": "9"},
            {"snr_db": "5"},
            {"num_antennas": 8.5},
            {"master_seed": "7"},
            {"workers": True},
            {"snr_db": float("nan")},
            {"jsr_db": float("inf")},
            {"tolerance": float("nan")},
            {"cluster_table": 5},
            {"cluster_table": b"profile.yaml"},
            # Linear ratios that overflow or reach zero.
            {"snr_db": 4000.0},
            {"snr_db": -4000.0},
            {"jsr_db": 4000.0},
            # A positive linear ratio so small that the estimate-noise
            # variance, the signal level over it, is infinite.
            {"snr_db": -3200.0},
            # Cells whose trials cannot run: a sequence too short for a
            # pilot, a delay spread beyond the pilot shift, and more users
            # than the pilot pool holds (139 // 5 = 27).
            {"sequence_length": 1},
            {"num_taps": PILOT_SHIFT + 1},
            {"num_users": 28},
            # Integers too large for a float.
            {"snr_db": int("1" * 400)},
            {"tolerance": int("1" * 400)},
        ],
    )
    def test_rejected(self, raw):
        # Rejected for its value: no case passes because its key is unknown.
        with pytest.raises(ConfigurationError) as raised:
            ScenarioConfig.from_dict(raw)
        assert "unknown configuration keys" not in str(raised.value)


class TestNestedConfigTypes:
    # A None or a dict given for one of the extractor's settings, or a
    # value ExtractorConfig rejects, is rejected when the config is built,
    # not at config_hash or inside the first trial.
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": None},
            {"threshold_scale": {"threshold_scale": 15.0}},
            {"threshold_scale": 0.0},
            {"tolerance": -1e-3},
        ],
        ids=["extractor-none", "extractor-dict", "zero-scale",
             "negative-tolerance"],
    )
    def test_rejected_when_built(self, kwargs):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(**kwargs)

    def test_extractor_bundles_the_two_settings(self):
        cfg = ScenarioConfig(threshold_scale=5, tolerance=0)
        assert cfg.extractor == ExtractorConfig(5.0, 0.0)
        assert type(cfg.extractor.threshold_scale) is float
        assert ScenarioConfig().extractor == ExtractorConfig()


class TestConfigHash:
    def test_ignores_where_and_how_trials_run(self):
        base = ScenarioConfig()
        assert replace(base, workers=4).config_hash() == (
            base.config_hash()
        )

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ({"snr_db": 5}, ScenarioConfig()),
            ({"tolerance": 1}, ScenarioConfig(tolerance=1.0)),
            ({"num_antennas": 64.0}, ScenarioConfig()),
            ({"cluster_table": Path("profile.yaml")},
             ScenarioConfig(cluster_table="profile.yaml")),
            ({"cluster_table": PurePosixPath("a/profile.yaml")},
             ScenarioConfig(cluster_table="a/profile.yaml")),
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
        (ScenarioConfig(), DEFAULT_ITEMS, "111f61a1381ce874"),
        (CUSTOM, CUSTOM_ITEMS, "5a706ed1f17aac1d"),
    ]

    @pytest.mark.parametrize("cfg, items, digest", CASES,
                             ids=["default", "custom"])
    def test_to_dict(self, cfg, items, digest):
        assert list(cfg.to_dict().items()) == items

    @pytest.mark.parametrize("cfg, items, digest", CASES,
                             ids=["default", "custom"])
    def test_config_hash(self, cfg, items, digest):
        assert cfg.config_hash() == digest


class TestLinkChainNoise:
    @pytest.mark.parametrize(
        "cfg", [ScenarioConfig(), replace(CUSTOM, cluster_table=None)]
    )
    def test_reproduces_tap_noise_variance(self, cfg):
        # One variance serves both laws: receive noise at the scenario's
        # ``receive_noise_variance`` gives the full chain's frequency-domain
        # estimates the ``estimate_noise_variance`` of the scenario, and its
        # tap-form estimates (what the sensing-batch shortcut draws) the
        # receive noise variance again.  With zero channels the estimates
        # are pure noise.
        zero = np.zeros((cfg.num_taps, cfg.num_antennas), dtype=complex)
        # Enough samples for about 20000 tap-form noise values.
        n_samples = -(-20_000 // zero.size)
        estimate = simulate_subframe(
            cfg.build_pool(), [zero] * cfg.num_users, None,
            cfg.receive_noise_variance, n_samples, rng=3,
        )
        assert np.mean(np.abs(estimate.fd) ** 2) == pytest.approx(
            cfg.estimate_noise_variance, rel=0.03
        )
        assert np.mean(np.abs(estimate.tap) ** 2) == pytest.approx(
            cfg.receive_noise_variance, rel=0.03
        )
