"""Clustered-channel oracles: steering geometry, energy normalization,
uniform azimuth placement, and beam-domain sparsity of draws.

``steering_vector`` is the oracle of the phasor-power steering the draws
use, and a ray-by-ray sum of its responses is the oracle of a whole draw."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofdet.channel import (
    RAYS_PER_CLUSTER,
    ClusterTable,
    GeometryScenario,
    _steering_powers,
    beamspace,
    default_cluster_table,
    draw_azimuths,
    draw_channel,
    draw_channels,
    load_cluster_table,
    steering_vector,
    vectorize_taps,
)
from spoofdet.errors import ClusterTableError, ConfigurationError


# The default profile as the package once shipped it, verbatim.
CLUSTERED_LOS_YAML = """\
# Default clustered multipath profile: one dominant line-of-sight cluster
# plus three weaker non-line-of-sight clusters.  The structure (LOS cluster
# with a strong Ricean factor, a few weak delayed clusters with small
# angular spread) follows standardized urban-macro clustered-delay-line
# profiles; the exact numbers below are a documented stand-in, not a
# transcription of any standards table.
#
# Schema:
#   delays_ns    — cluster excess delays in nanoseconds, ascending
#   powers_db    — relative cluster powers in dB (normalized to sum to 1
#                  in linear units when loaded)
#   azimuths_deg — cluster azimuth offsets, degrees, relative to the
#                  source line-of-sight direction
#   spreads_deg  — per-cluster ray angular spread (std dev), degrees
#   ricean_k_db  — Ricean factor of the first cluster (optional)
delays_ns: [0.0, 35.0, 245.0, 610.0]
powers_db: [0.0, -13.5, -18.8, -21.0]
azimuths_deg: [0.0, 28.0, -36.0, 54.0]
spreads_deg: [1.0, 3.0, 3.0, 3.0]
ricean_k_db: 13.3
"""


def single_cluster_table(azimuth_offset=0.0, spread=0.0, ricean_k_db=None):
    return ClusterTable(
        delays_ns=np.array([0.0]),
        powers=np.array([1.0]),
        azimuths_deg=np.array([azimuth_offset]),
        spreads_deg=np.array([spread]),
        ricean_k_db=ricean_k_db,
    )


def scenario_with_user_at(azimuth_deg, num_antennas=4):
    return GeometryScenario(
        num_antennas=num_antennas,
        user_azimuths_deg=(azimuth_deg,),
        attacker_azimuth_deg=azimuth_deg + 90.0,
    )


class TestClusterTable:
    def test_from_dict_normalizes_powers(self):
        table = ClusterTable.from_dict(
            {
                "delays_ns": [0.0, 100.0],
                "powers_db": [0.0, -10.0],
                "azimuths_deg": [0.0, 30.0],
                "spreads_deg": [1.0, 1.0],
            }
        )
        assert abs(table.powers.sum() - 1.0) < 1e-9
        assert table.powers[0] / table.powers[1] == pytest.approx(10.0)

    def test_default_table_loads_and_normalizes(self):
        table = default_cluster_table()
        assert table.num_clusters >= 2
        assert abs(table.powers.sum() - 1.0) < 1e-9
        assert np.all(np.diff(table.delays_ns) >= 0)
        assert table.ricean_k_db is not None

    def test_default_table_equals_its_former_yaml_file(self, tmp_path):
        # The default profile was shipped as this YAML file; the table built
        # in code must hold the same bits, and the YAML reader must still
        # read the layout.
        path = tmp_path / "clustered_los.yaml"
        path.write_text(CLUSTERED_LOS_YAML, encoding="utf-8")
        loaded, built = load_cluster_table(path), default_cluster_table()
        for name in ("delays_ns", "powers", "azimuths_deg", "spreads_deg"):
            assert getattr(loaded, name).tobytes() == \
                getattr(built, name).tobytes(), name
        assert loaded.ricean_k_db == built.ricean_k_db == 13.3

    def test_empty_table_rejected(self):
        with pytest.raises(ClusterTableError):
            ClusterTable(
                delays_ns=np.array([]),
                powers=np.array([]),
                azimuths_deg=np.array([]),
                spreads_deg=np.array([]),
            )

    def test_unsorted_delays_rejected(self):
        with pytest.raises(ClusterTableError):
            ClusterTable(
                delays_ns=np.array([100.0, 0.0]),
                powers=np.array([0.5, 0.5]),
                azimuths_deg=np.array([0.0, 0.0]),
                spreads_deg=np.array([1.0, 1.0]),
            )

    GOOD = {"delays_ns": [0.0, 35.0], "powers": [0.75, 0.25],
            "azimuths_deg": [0.0, 28.0], "spreads_deg": [1.0, 3.0]}

    @pytest.mark.parametrize("change, message", [
        ({"powers": [0.5, 0.25, 0.25]}, "columns differ in length"),
        ({"delays_ns": [-5.0, 35.0]}, "delays must be non-negative"),
        ({"powers": [1.25, -0.25]}, "powers must be positive"),
        ({"powers": [0.5, 0.25]}, "powers must sum to 1"),
        ({"spreads_deg": [1.0, -3.0]}, "spreads must be non-negative"),
    ], ids=["lengths", "delay", "power", "power-sum", "spread"])
    def test_out_of_range_column_rejected(self, change, message):
        with pytest.raises(ClusterTableError, match=message):
            ClusterTable(**{**self.GOOD, **change})

    @pytest.mark.parametrize("name", [
        "delays_ns", "powers", "azimuths_deg", "spreads_deg"
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, name, value):
        # NaN passes every range check, so it is rejected before them.
        column = list(self.GOOD[name])
        column[1] = value
        with pytest.raises(ClusterTableError, match=f"{name} must be finite"):
            ClusterTable(**{**self.GOOD, name: column})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_ricean_factor_rejected(self, value):
        with pytest.raises(ClusterTableError,
                           match="ricean_k_db must be finite"):
            ClusterTable(**self.GOOD, ricean_k_db=value)

    @pytest.mark.parametrize("key", [
        "delays_ns", "powers_db", "azimuths_deg", "spreads_deg", "ricean_k_db"
    ])
    def test_nan_read_from_a_mapping_rejected(self, key):
        raw = {"delays_ns": [0.0, 35.0], "powers_db": [0.0, -13.5],
               "azimuths_deg": [0.0, 28.0], "spreads_deg": [1.0, 3.0],
               "ricean_k_db": 13.3}
        raw[key] = math.nan if key == "ricean_k_db" else [0.0, math.nan]
        with pytest.raises(ClusterTableError, match="must be finite"):
            ClusterTable.from_dict(raw)

    def test_powers_that_sum_to_zero_rejected(self):
        # -inf dB is zero power in linear units.
        with pytest.raises(ClusterTableError, match="sum to zero"):
            ClusterTable.from_dict({
                "delays_ns": [0.0], "powers_db": [-math.inf],
                "azimuths_deg": [0.0], "spreads_deg": [1.0],
            })

    def test_missing_key_rejected(self):
        with pytest.raises(ClusterTableError):
            ClusterTable.from_dict({"delays_ns": [0.0]})

    @pytest.mark.parametrize("raw", [
        {"delays_ns": ["a"]},
        {"delays_ns": 0.0},
        {"delays_ns": None},
        {"ricean_k_db": "strong"},
    ])
    def test_non_numeric_value_rejected(self, raw):
        good = {"delays_ns": [0.0], "powers_db": [0.0],
                "azimuths_deg": [0.0], "spreads_deg": [1.0]}
        with pytest.raises(ClusterTableError):
            ClusterTable.from_dict({**good, **raw})

    @pytest.mark.parametrize("text", [
        None,  # no file
        "delays_ns: [0.0\n  : :\n",  # not YAML
        "- 1\n- 2\n",  # not a mapping
        "delays_ns: [a]\npowers_db: [0]\nazimuths_deg: [0]\n"
        "spreads_deg: [1]\n",
    ], ids=["missing", "invalid-yaml", "list", "non-numeric"])
    def test_unreadable_file_names_its_path(self, tmp_path, text):
        path = tmp_path / "table.yaml"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ClusterTableError, match="table.yaml: "):
            load_cluster_table(path)

    def test_columns_are_read_only_copies(self):
        # One table is shared by every trial of a run, so no caller may
        # change it, and it must not alias the caller's arrays.
        delays = np.array([0.0, 100.0])
        table = ClusterTable(
            delays_ns=delays,
            powers=np.array([0.5, 0.5]),
            azimuths_deg=np.array([0.0, 30.0]),
            spreads_deg=np.array([1.0, 1.0]),
        )
        for shared in (table, default_cluster_table()):
            for column in (shared.delays_ns, shared.powers,
                           shared.azimuths_deg, shared.spreads_deg):
                with pytest.raises(ValueError):
                    column[0] = 1.0
        delays[1] = 50.0
        assert table.delays_ns[1] == 100.0

    def test_an_unpickled_table_keeps_its_bits_read_only(self):
        # A config carries its table to pool workers pickled.
        table = default_cluster_table()
        copy = pickle.loads(pickle.dumps(table))
        for name in ("delays_ns", "powers", "azimuths_deg", "spreads_deg"):
            column = getattr(copy, name)
            assert column.tobytes() == getattr(table, name).tobytes(), name
            assert not column.flags.writeable, name
        assert copy.ricean_k_db == table.ricean_k_db


class TestGeometryScenario:
    def test_position_resolution(self):
        sc = scenario_with_user_at(10.0)
        assert sc.azimuth_of(0) == 10.0
        assert sc.azimuth_of("attacker") == 100.0
        with pytest.raises(ConfigurationError):
            sc.azimuth_of(5)


class TestSteering:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(steering_vector(8, 0.0), np.ones(8))

    def test_unit_magnitude_elements(self):
        v = steering_vector(16, 37.0)
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)

    @pytest.mark.parametrize("num_antennas", [8, 64, 256])
    def test_phasor_powers_match_the_steering_vector(self, num_antennas):
        # Row m is the m-th power of one phasor per ray, so its rounding
        # error grows with m; M * 1e-15 bounds it over the whole array.
        azimuths = np.linspace(-180.0, 180.0, 1441)
        rows = _steering_powers(np.sin(np.radians(azimuths)), num_antennas, 1.0)
        assert rows.shape == (num_antennas, azimuths.size)
        expected = np.array([steering_vector(num_antennas, a) for a in azimuths])
        np.testing.assert_allclose(
            rows.T, expected, rtol=0, atol=num_antennas * 1e-15
        )


class TestDrawChannel:
    def test_zero_spread_broadside_proportional_to_ones(self):
        table = single_cluster_table(azimuth_offset=0.0, spread=0.0)
        sc = scenario_with_user_at(0.0, num_antennas=4)
        taps = draw_channel(sc, table, 0, num_taps=1, tap_duration_ns=100.0, rng=7)
        row = taps[0]
        # All rays share the broadside direction, so the antenna response is
        # a common complex scalar times the all-ones vector.
        np.testing.assert_allclose(row, row[0] * np.ones(4), atol=1e-12)
        assert abs(row[0]) > 0

    def test_mean_energy_matches_cluster_power(self):
        table = single_cluster_table(spread=2.0)
        sc = scenario_with_user_at(25.0, num_antennas=8)
        rng = np.random.default_rng(123)
        n_draws = 10_000
        total = 0.0
        for _ in range(n_draws):
            taps = draw_channel(sc, table, 0, 1, 100.0, rng)
            total += np.sum(np.abs(taps) ** 2)
        mean_energy = total / n_draws
        assert mean_energy == pytest.approx(8.0, rel=0.05)

    def test_default_table_mean_energy_is_m(self):
        table = default_cluster_table()
        sc = scenario_with_user_at(40.0, num_antennas=8)
        rng = np.random.default_rng(99)
        n_draws = 10_000
        total = 0.0
        for _ in range(n_draws):
            taps = draw_channel(sc, table, 0, 4, 240.0, rng)
            total += np.sum(np.abs(taps) ** 2)
        assert total / n_draws == pytest.approx(8.0, rel=0.05)

    def test_sources_at_distinct_azimuths_peak_in_distinct_beams(self):
        table = single_cluster_table(spread=1.0)
        sc = GeometryScenario(
            num_antennas=32,
            user_azimuths_deg=(0.0, 60.0),
            attacker_azimuth_deg=180.0,
        )
        rng = np.random.default_rng(5)
        spectra = np.zeros((2, 32))
        for _ in range(200):
            for idx in (0, 1):
                taps = draw_channel(sc, table, idx, 1, 100.0, rng)
                spectra[idx] += np.abs(np.fft.fft(taps[0])) ** 2
        assert int(np.argmax(spectra[0])) != int(np.argmax(spectra[1]))

    def test_delay_beyond_tap_window_rejected(self):
        table = ClusterTable(
            delays_ns=np.array([0.0, 900.0]),
            powers=np.array([0.5, 0.5]),
            azimuths_deg=np.array([0.0, 30.0]),
            spreads_deg=np.array([1.0, 1.0]),
        )
        sc = scenario_with_user_at(0.0)
        with pytest.raises(ClusterTableError):
            draw_channel(sc, table, 0, num_taps=2, tap_duration_ns=240.0, rng=0)

    def test_clusters_land_on_nearest_taps(self):
        table = ClusterTable(
            delays_ns=np.array([0.0, 500.0]),
            powers=np.array([0.5, 0.5]),
            azimuths_deg=np.array([0.0, 30.0]),
            spreads_deg=np.array([0.0, 0.0]),
        )
        sc = scenario_with_user_at(0.0)
        taps = draw_channel(sc, table, 0, num_taps=4, tap_duration_ns=240.0, rng=3)
        energies = np.sum(np.abs(taps) ** 2, axis=1)
        assert energies[0] > 0 and energies[2] > 0
        assert energies[1] == 0 and energies[3] == 0

    def test_reproducible_from_seed(self):
        table = default_cluster_table()
        sc = scenario_with_user_at(12.0, num_antennas=16)
        a = draw_channel(sc, table, 0, 4, 240.0, rng=42)
        b = draw_channel(sc, table, 0, 4, 240.0, rng=42)
        np.testing.assert_array_equal(a, b)


def reference_channel(scenario, table, source, num_taps, tap_duration_ns, gen):
    """A draw as the sum over rays of ``steering_vector`` responses, each
    ray drawn from ``gen`` in the documented order: the dominant ray's
    phase, then each cluster's angle offsets and ray phases."""
    azimuth = scenario.azimuth_of(source)
    m_ant = scenario.num_antennas
    taps = np.zeros((num_taps, m_ant), dtype=complex)
    diffuse = table.powers.copy()
    for c in range(table.num_clusters):
        tap = round(table.delays_ns[c] / tap_duration_ns)
        cluster_azimuth = azimuth + table.azimuths_deg[c]
        if c == 0 and table.ricean_k_db is not None:
            k_lin = 10.0 ** (table.ricean_k_db / 10.0)
            phase = gen.uniform(0.0, 2.0 * np.pi)
            taps[tap] += (
                math.sqrt(table.powers[0] * k_lin / (k_lin + 1.0))
                * np.exp(1j * phase)
                * steering_vector(m_ant, cluster_azimuth)
            )
            diffuse[0] = table.powers[0] / (k_lin + 1.0)
        offsets = gen.normal(0.0, table.spreads_deg[c], size=RAYS_PER_CLUSTER)
        phases = gen.uniform(0.0, 2.0 * np.pi, size=RAYS_PER_CLUSTER)
        amplitude = math.sqrt(diffuse[c] / RAYS_PER_CLUSTER)
        for offset, phase in zip(offsets, phases):
            taps[tap] += amplitude * np.exp(1j * phase) * steering_vector(
                m_ant, cluster_azimuth + offset
            )
    return taps


class TestDrawChannels:
    """``draw_channels`` draws each source from its own generator, so row
    ``i`` is ``draw_channel`` of source ``i``, whatever the other sources."""

    SCENARIO = GeometryScenario(
        num_antennas=16,
        user_azimuths_deg=(10.0, 75.0, 190.0, 300.0),
        attacker_azimuth_deg=130.0,
    )
    SOURCES = [0, 1, 2, 3, "attacker"]

    @given(order=st.permutations(SOURCES), seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_rows_are_the_one_source_draws(self, order, seed):
        table = default_cluster_table()
        seeds = {source: [seed, i] for i, source in enumerate(self.SOURCES)}
        channels = draw_channels(
            self.SCENARIO, table, order, 4, 240.0,
            [np.random.default_rng(seeds[source]) for source in order],
        )
        assert channels.shape == (len(order), 4, 16)
        for row, source in zip(channels, order):
            one = draw_channel(
                self.SCENARIO, table, source, 4, 240.0,
                np.random.default_rng(seeds[source]),
            )
            assert row.tobytes() == one.tobytes()

    @pytest.mark.parametrize("table", [
        default_cluster_table(), single_cluster_table(spread=2.0),
    ], ids=["default", "diffuse"])
    @pytest.mark.parametrize("source", [0, 2, "attacker"])
    def test_matches_the_ray_by_ray_sum(self, table, source):
        # Each ray's row is within M * 1e-15 of its steering vector, and the
        # ray gains' magnitudes sum to at most sqrt(rays) <= 9, as the
        # cluster powers sum to one.
        gen = np.random.default_rng(41)
        reference = np.random.default_rng(41)
        for _ in range(20):
            taps = draw_channels(
                self.SCENARIO, table, [source], 4, 240.0, [gen]
            )[0]
            expected = reference_channel(
                self.SCENARIO, table, source, 4, 240.0, reference
            )
            np.testing.assert_allclose(
                taps, expected, rtol=0, atol=10 * 16 * 1e-15
            )
        # Each draw leaves its generator where the ray-by-ray draw does.
        assert gen.random() == reference.random()

    def test_no_sources_draw_nothing(self):
        channels = draw_channels(
            self.SCENARIO, default_cluster_table(), [], 4, 240.0, []
        )
        assert channels.shape == (0, 4, 16)

    @pytest.mark.parametrize("source, num_taps, tap_duration_ns, error, text", [
        (0, 0, 240.0, ConfigurationError, "num_taps must be positive, got 0"),
        (0, 4, 0.0, ConfigurationError, "tap duration must be positive"),
        (7, 4, 240.0, ConfigurationError, "unknown source id 7"),
        ("attacker", 1, 240.0, ClusterTableError,
         "cluster 2 at 245.0 ns maps to tap 1, beyond the 1-tap window "
         "(240.0 ns per tap)"),
    ], ids=["no-taps", "no-tap-duration", "unknown-source", "beyond-window"])
    def test_errors(self, source, num_taps, tap_duration_ns, error, text):
        # One text from the one-source form and from a batch holding it.
        table = default_cluster_table()
        with pytest.raises(error) as one:
            draw_channel(
                self.SCENARIO, table, source, num_taps, tap_duration_ns, 0
            )
        with pytest.raises(error) as batch:
            draw_channels(
                self.SCENARIO, table, [1, source, "attacker"], num_taps,
                tap_duration_ns, [0, 0, 0],
            )
        assert str(one.value) == str(batch.value) == text

    def test_one_generator_per_source(self):
        with pytest.raises(ConfigurationError, match="one generator per"):
            draw_channels(
                self.SCENARIO, default_cluster_table(), [0, 1], 4, 240.0, [0]
            )


class TestBeamspaceSparsity:
    def test_energy_concentrates_in_few_beams(self):
        # The shipped profile has 4 clusters; averaged over draws, the top
        # 3 * 4 = 12 of 64 beams must hold at least 90% of the energy.
        table = default_cluster_table()
        sc = scenario_with_user_at(33.0, num_antennas=64)
        rng = np.random.default_rng(17)
        fractions = []
        for _ in range(200):
            taps = draw_channel(sc, table, 0, 4, 240.0, rng)
            beams = beamspace(taps)
            beam_energy = np.sum(np.abs(beams) ** 2, axis=0)
            top = np.sort(beam_energy)[::-1][: 3 * table.num_clusters]
            fractions.append(top.sum() / beam_energy.sum())
        assert np.mean(fractions) >= 0.90

    def test_separated_sources_have_low_support_overlap(self):
        table = default_cluster_table()
        rng = np.random.default_rng(29)
        jaccards = []
        for _ in range(150):
            az1 = rng.uniform(0.0, 360.0)
            az2 = az1 + rng.uniform(20.0, 340.0)
            sc = GeometryScenario(
                num_antennas=64,
                user_azimuths_deg=(az1, az2 % 360.0),
                attacker_azimuth_deg=0.0,
            )
            supports = []
            for idx in (0, 1):
                taps = draw_channel(sc, table, idx, 4, 240.0, rng)
                beam_energy = np.sum(np.abs(beamspace(taps)) ** 2, axis=0)
                order = np.argsort(beam_energy)[::-1]
                cumulative = np.cumsum(beam_energy[order]) / beam_energy.sum()
                cutoff = int(np.searchsorted(cumulative, 0.9)) + 1
                supports.append(set(order[:cutoff].tolist()))
            a, b = supports
            jaccards.append(len(a & b) / len(a | b))
        assert np.mean(jaccards) < 0.5


class TestPlaceActors:
    """Actors are placed by one uniformly drawn azimuth each."""

    def test_count_zero_gives_empty_list(self):
        assert draw_azimuths(0, rng=3) == []

    @given(
        count=st.integers(min_value=0, max_value=50),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_containment_property(self, count, seed):
        for azimuth in draw_azimuths(count, rng=seed):
            assert 0.0 <= azimuth < 360.0

    @given(
        count=st.integers(min_value=0, max_value=50),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_keeps_the_azimuths_of_the_annulus_draw(self, count, seed):
        # Actors were once placed on an annulus: squared ranges first, then
        # azimuths, from the same stream.  Each seed keeps its azimuths.
        old = np.random.default_rng(seed)
        old.uniform(100.0**2, 120.0**2, size=count)
        expected = old.uniform(0.0, 360.0, size=count)
        gen = np.random.default_rng(seed)
        drawn = np.array(draw_azimuths(count, gen))
        assert drawn.tobytes() == expected.tobytes()
        assert gen.random() == old.random()


class TestBeamspaceTransform:
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_unitary(self, seed):
        rng = np.random.default_rng(seed)
        taps = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        assert np.linalg.norm(beamspace(taps)) == pytest.approx(
            np.linalg.norm(taps), rel=1e-12
        )

    def test_vectorize_is_tap_major(self):
        taps = np.arange(6).reshape(2, 3) + 0j
        vec = vectorize_taps(taps)
        # coordinate i = tap * M + column
        assert vec[0 * 3 + 2] == taps[0, 2]
        assert vec[1 * 3 + 1] == taps[1, 1]
