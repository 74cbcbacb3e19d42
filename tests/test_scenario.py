import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmjoint.scenario import (
    ATTENUATION_CONST,
    PATHLOSS_EXPONENT,
    CellGeometry,
    GroupLayout,
    Grouped,
    LargeScaleProfile,
    PhysicalUnits,
    SystemConfig,
    large_scale_fading,
    normalize_units,
    place_users,
)

from conftest import make_system


class TestSystemConfig:
    def test_group_size_mismatch(self):
        with pytest.raises(ValueError, match="group_sizes"):
            make_system(n_groups=2, group_sizes=(2,))

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            make_system(energy=0.0)

    def test_coherence_interval_must_exceed_pilot_length(self):
        # U + G = 3 pilots: T = 3 leaves no data symbol
        for t in (2, 3):
            with pytest.raises(ValueError, match="coherence_symbols"):
                make_system(coherence_symbols=t)
        assert make_system(coherence_symbols=4).prelog(3) == 0.25

    def test_weights_default_to_ones(self):
        assert make_system(n_unicast=4).unicast_weights == [1.0] * 4


class TestPlaceUsers:
    def test_same_seed_identical(self, small_system):
        a = place_users(small_system, 500.0, 35.0, seed=42)
        b = place_users(small_system, 500.0, 35.0, seed=42)
        assert a == b

    def test_different_seed_differs(self, small_system):
        a = place_users(small_system, 500.0, 35.0, seed=42)
        b = place_users(small_system, 500.0, 35.0, seed=43)
        assert a != b

    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_distances_within_annulus(self, seed):
        cfg = make_system(n_unicast=20, n_groups=2, group_sizes=(30, 30))
        geo = place_users(cfg, 500.0, 35.0, seed=seed)
        d = np.array(geo.unicast_distances + sum(geo.multicast_distances, []))
        assert np.all(d >= 35.0) and np.all(d <= 500.0)

    def test_degenerate_annulus(self, small_system):
        eps = 1e-9
        geo = place_users(small_system, 500.0, 500.0 - eps, seed=5)
        d = np.array(geo.unicast_distances + sum(geo.multicast_distances, []))
        assert np.allclose(d, 500.0)

    def test_exclusion_must_be_smaller(self, small_system):
        with pytest.raises(ValueError):
            place_users(small_system, 100.0, 100.0, seed=0)

    def test_uniform_in_area(self):
        # mean of r^2 over the annulus must be (R^2 + r0^2)/2
        cfg = SystemConfig(
            n_antennas=1, n_unicast=100_000, n_groups=1, group_sizes=[1],
            coherence_symbols=200_000, total_dl_power=1.0,
            unicast_energy_budgets=[1.0] * 100_000,
            multicast_energy_budgets=[[1.0]],
        )
        geo = place_users(cfg, 500.0, 35.0, seed=2024)
        r2 = np.asarray(geo.unicast_distances) ** 2
        expected = (500.0**2 + 35.0**2) / 2.0
        assert abs(r2.mean() - expected) / expected < 0.01


class TestLargeScaleFading:
    def test_unit_distance(self):
        assert large_scale_fading(1.0) == ATTENUATION_CONST

    def test_reference_fading_value(self):
        # d = 35 m with the default constants
        expected = 10.0 ** -3.5 / 35.0**3.76
        got = large_scale_fading(35.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(4.944e-10, rel=1e-3)

    @given(st.floats(min_value=1.0, max_value=1e4))
    def test_doubling_distance(self, x):
        ratio = large_scale_fading(x) / large_scale_fading(2.0 * x)
        assert ratio == pytest.approx(2.0**PATHLOSS_EXPONENT, rel=1e-12)

    @given(
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=1.0, max_value=1e4),
    )
    def test_strictly_decreasing(self, x1, x2):
        if x1 == x2:
            return
        lo, hi = min(x1, x2), max(x1, x2)
        assert large_scale_fading(lo) > large_scale_fading(hi)

    def test_nonpositive_distance(self):
        with pytest.raises(ValueError):
            large_scale_fading(0.0)
        with pytest.raises(ValueError):
            large_scale_fading(-3.0)


class TestNormalizeUnits:
    def test_reference_values(self):
        phys = PhysicalUnits(
            bandwidth_hz=20e6, noise_psd_dbm_per_hz=-174.0,
            dl_power_watts=10.0, pilot_energy_joules=2e-6,
        )
        power, energy = normalize_units(phys)
        assert power == pytest.approx(1.256e14, rel=1e-3)
        assert energy == pytest.approx(5.02e14, rel=1e-3)

    def test_identity_normalization(self):
        sigma2 = 10 ** ((-174.0 - 30.0) / 10.0)
        phys = PhysicalUnits(
            bandwidth_hz=20e6, noise_psd_dbm_per_hz=-174.0,
            dl_power_watts=20e6 * sigma2, pilot_energy_joules=1e-9,
        )
        power, _ = normalize_units(phys)
        assert power == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, index, value):
        args = [20e6, -174.0, 10.0, 2e-6]
        args[index] = value
        with pytest.raises(ValueError, match="must be finite"):
            PhysicalUnits(*args)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25)
    def test_linear_in_power_and_energy(self, scale):
        base = PhysicalUnits(20e6, -174.0, 10.0, 2e-6)
        scaled = PhysicalUnits(20e6, -174.0, 10.0 * scale, 2e-6 * scale)
        p0, e0 = normalize_units(base)
        p1, e1 = normalize_units(scaled)
        assert p1 == pytest.approx(p0 * scale, rel=1e-12)
        assert e1 == pytest.approx(e0 * scale, rel=1e-12)


class TestGeometryAndProfile:
    def test_distance_bounds_enforced(self):
        with pytest.raises(ValueError, match="distances"):
            CellGeometry(
                unicast_distances=[10.0], multicast_distances=[[100.0]],
                cell_radius=500.0, exclusion_radius=35.0,
            )

    def test_profile_from_geometry(self):
        geo = CellGeometry(
            unicast_distances=[35.0], multicast_distances=[[500.0]],
            cell_radius=500.0, exclusion_radius=35.0,
        )
        prof = LargeScaleProfile.from_geometry(geo)
        assert prof.beta[0] == pytest.approx(large_scale_fading(35.0))
        assert prof.eta[0][0] == pytest.approx(large_scale_fading(500.0))

    def test_profile_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LargeScaleProfile(beta=[0.0], eta=[[1.0]])


SYSTEM_KWARGS = dict(
    n_antennas=64, n_unicast=2, n_groups=1, group_sizes=[2],
    coherence_symbols=200, total_dl_power=5.0,
    unicast_energy_budgets=[10.0, 10.0],
    multicast_energy_budgets=[[10.0, 10.0]], unicast_weights=None)


class TestSystemConfigRejections:
    @pytest.mark.parametrize("key, value, message", [
        ("n_antennas", 0, "n_antennas must be a positive"),
        ("n_unicast", 0, "n_unicast must be a positive"),
        ("n_groups", 0, "n_groups must be a positive"),
        ("group_sizes", [0], "group_sizes entries must be positive"),
        ("total_dl_power", math.inf, "total_dl_power must be finite"),
        ("total_dl_power", math.nan, "total_dl_power must be finite"),
        ("total_dl_power", -1.0, "total_dl_power must be finite"),
        ("unicast_energy_budgets", [10.0],
         "unicast_energy_budgets must have length"),
        ("unicast_energy_budgets", [10.0, math.inf],
         "unicast_energy_budgets must be finite"),
        ("multicast_energy_budgets", [[10.0]],
         "multicast_energy_budgets must match"),
        ("multicast_energy_budgets", [[10.0, 0.0]],
         "multicast_energy_budgets must be finite"),
        ("unicast_weights", [1.0], "unicast_weights must have length"),
        ("unicast_weights", [1.0, 0.0], "unicast_weights must be finite"),
    ])
    def test_rejection_names_the_field(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            SystemConfig(**{**SYSTEM_KWARGS, key: value})

    def test_grouped_with_a_layout_that_does_not_match(self):
        with pytest.raises(ValueError, match="do not match the layout"):
            Grouped([[1.0, 2.0]], GroupLayout([3]))
