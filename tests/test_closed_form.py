import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmjoint.closed_form import (
    EstimationStats,
    InfeasibleAllocationError,
    PowerAllocation,
    estimation_variance_multicast,
    estimation_variance_unicast,
    evaluate,
    mrt_sinr,
    pilot_scaling,
)
from mmjoint.optimizers import solve_mmf
from mmjoint.scenario import LargeScaleProfile, SystemConfig

from conftest import make_system

positive = st.floats(min_value=1e-6, max_value=1e6)


def make_alloc(p_dl=(1.0, 1.0), q_dl=(2.0,), p_up=(1.0, 1.0),
               q_up=((1.0, 1.0),), tau=3):
    return PowerAllocation(
        p_dl=list(p_dl), q_dl=list(q_dl), p_up=list(p_up),
        q_up=[list(g) for g in q_up], tau=tau,
    )


class TestEstimationVarianceUnicast:
    def test_zero_pilot_power(self):
        assert estimation_variance_unicast(10, 0.0, 2.0) == 0.0

    def test_perfect_csi_limit(self):
        beta = 2.0
        # tau * p * beta = 1e3 leaves a relative gap below 1e-3
        vartheta = estimation_variance_unicast(1000, 1.0 / beta * 1.0, beta)
        assert (beta - vartheta) / beta < 1e-3

    def test_half_beta_at_unit_pilot_snr(self):
        # tau * p_up * beta = 1 gives vartheta = beta / 2
        beta = 0.7
        assert estimation_variance_unicast(30, 1.0 / (30 * beta), beta) == \
            pytest.approx(beta / 2.0, rel=1e-12)

    @given(st.integers(1, 1000), positive, positive)
    def test_bounded_by_beta(self, tau, p_up, beta):
        vartheta = estimation_variance_unicast(tau, p_up, beta)
        assert 0.0 <= vartheta < beta


class TestEstimationVarianceMulticast:
    def test_all_zero_pilots(self):
        xi, gamma = estimation_variance_multicast(5, [0.0, 0.0], [1.0, 2.0])
        assert np.all(xi == 0.0) and gamma == 0.0

    def test_single_member_reduces_to_unicast(self):
        tau, q, eta = 7, 0.3, 1.4
        xi, _ = estimation_variance_multicast(tau, [q], [eta])
        assert xi[0] == pytest.approx(
            estimation_variance_unicast(tau, q, eta), rel=1e-15
        )

    @given(
        st.integers(1, 100),
        st.lists(positive, min_size=1, max_size=5),
        st.lists(positive, min_size=1, max_size=5),
    )
    @settings(max_examples=200)
    def test_scalar_proportionality_identity(self, tau, q_up, eta):
        # xi_k must equal c_k^2 * gamma for the pilot-sharing scalars c_k
        n = min(len(q_up), len(eta))
        q, e = q_up[:n], eta[:n]
        xi, gamma = estimation_variance_multicast(tau, q, e)
        c = pilot_scaling(tau, q, e)
        assert np.allclose(xi, c**2 * gamma, rtol=1e-12, atol=0.0)

    @given(
        st.integers(1, 100),
        st.lists(positive, min_size=2, max_size=4),
    )
    @settings(max_examples=100)
    def test_xi_bounded_by_eta(self, tau, vals):
        q = vals
        eta = vals[::-1]
        xi, gamma = estimation_variance_multicast(tau, q, eta)
        assert np.all(xi < np.asarray(eta))
        assert gamma > 0.0


class TestMrtSinr:
    @given(st.integers(1, 1024), positive, positive, positive)
    def test_zero_total_power_leaves_the_numerator(self, n, p, var, fading):
        assert mrt_sinr(n, p, var, fading, 0.0) == n * p * var

    @given(st.integers(1, 1024), positive, positive, positive, positive)
    def test_linear_in_power_and_antennas(self, n, p, var, fading, total):
        sinr = mrt_sinr(n, p, var, fading, total)
        # doubling is exact in binary floating point
        assert mrt_sinr(n, 2.0 * p, var, fading, total) == 2.0 * sinr
        assert mrt_sinr(2 * n, p, var, fading, total) == 2.0 * sinr
        assert mrt_sinr(n, 3.0 * p, var, fading, total) == \
            pytest.approx(3.0 * sinr, rel=1e-14)
        assert mrt_sinr(3 * n, p, var, fading, total) == \
            pytest.approx(3.0 * sinr, rel=1e-14)

    def test_zero_power_or_variance_gives_zero(self):
        assert mrt_sinr(64, 0.0, 0.7, 1.2, 5.0) == 0.0
        assert mrt_sinr(64, 2.0, 0.0, 1.2, 5.0) == 0.0

    def test_split_rows_broadcast_against_per_user_values(self):
        # as wsse_arrays passes them: (n, U) powers, (U,) variance and fading
        rng = np.random.default_rng(5)
        power = rng.uniform(0.0, 3.0, (7, 4))
        var, fading = rng.uniform(0.1, 2.0, 4), rng.uniform(0.1, 2.0, 4)
        sinr = mrt_sinr(64, power, var, fading, 5.0)
        assert sinr.shape == (7, 4)
        for row, p in zip(sinr, power):
            assert np.array_equal(row, mrt_sinr(64, p, var, fading, 5.0))


class TestSinrSe:
    def setup_method(self):
        self.config = make_system(total_dl_power=4.0, energy=30.0)
        self.profile = LargeScaleProfile(beta=[0.8, 1.5], eta=[[1.0, 0.6]])

    def unicast(self, alloc, config=None):
        ses = evaluate(config or self.config, alloc, self.profile)
        return np.asarray(ses.sinr_unicast), np.asarray(ses.se_unicast)

    def test_zero_downlink_power(self):
        alloc = make_alloc(p_dl=(0.0, 1.0), q_dl=(2.0,))
        sinr, se = self.unicast(alloc)
        assert sinr[0] == 0.0 and se[0] == 0.0
        assert sinr[1] > 0.0

    def test_full_pilot_overhead_kills_se(self):
        cfg = make_system(total_dl_power=4.0, energy=30.0)
        alloc = make_alloc(tau=200, p_up=(0.1, 0.1), q_up=((0.05, 0.05),))
        sinr, se = self.unicast(alloc, cfg)
        assert np.all(sinr > 0.0)
        assert np.all(se == 0.0)

    def test_sinr_linear_in_antennas(self):
        alloc = make_alloc()
        small = make_system(n_antennas=50, total_dl_power=4.0)
        big = make_system(n_antennas=100, total_dl_power=4.0)
        s1, _ = self.unicast(alloc, small)
        s2, _ = self.unicast(alloc, big)
        assert np.allclose(s2, 2.0 * s1, rtol=1e-15)

    def test_multicast_zero_group_power(self):
        alloc = make_alloc(q_dl=(0.0,))
        ses = evaluate(self.config, alloc, self.profile)
        sinr, se = ses.sinr_multicast, ses.se_multicast
        assert np.all(sinr[0] == 0.0) and np.all(se[0] == 0.0)

    def test_multicast_symmetry(self):
        profile = LargeScaleProfile(beta=[0.8, 1.5], eta=[[0.9, 0.9]])
        alloc = make_alloc(q_up=((0.5, 0.5),))
        sinr = evaluate(self.config, alloc, profile).sinr_multicast
        assert sinr[0][0] == pytest.approx(sinr[0][1], rel=1e-15)

    def test_single_member_group_matches_unicast(self):
        # one-user group with eta == beta and the same powers gives the same SINR
        cfg = make_system(n_unicast=1, n_groups=1, group_sizes=(1,),
                          total_dl_power=4.0)
        profile = LargeScaleProfile(beta=[1.1], eta=[[1.1]])
        alloc = PowerAllocation(p_dl=[1.5], q_dl=[1.5], p_up=[0.4],
                                q_up=[[0.4]], tau=2)
        ses = evaluate(cfg, alloc, profile)
        assert ses.sinr_multicast[0][0] == pytest.approx(
            ses.sinr_unicast[0], rel=1e-15)

    def test_infeasible_total_power_rejected(self):
        alloc = make_alloc(p_dl=(3.0, 3.0), q_dl=(3.0,))
        with pytest.raises(InfeasibleAllocationError):
            evaluate(self.config, alloc, self.profile)

    def test_pilot_energy_overrun_rejected(self):
        cfg = make_system(total_dl_power=4.0, energy=1.0)
        alloc = make_alloc(p_up=(1.0, 1.0))  # tau * p_up = 3 > 1
        with pytest.raises(InfeasibleAllocationError):
            alloc.check_feasible(cfg)

    def test_se_formula_elementwise(self):
        alloc = make_alloc()
        ses = evaluate(self.config, alloc, self.profile)
        prelog = self.config.prelog(alloc.tau)
        assert np.allclose(
            ses.se_unicast, prelog * np.log2(1.0 + np.asarray(ses.sinr_unicast))
        )
        assert np.allclose(
            ses.se_multicast[0],
            prelog * np.log2(1.0 + np.asarray(ses.sinr_multicast[0])),
        )

    @given(st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=30)
    def test_sinr_monotone_in_own_power_and_interference(self, bump):
        base = make_alloc(p_dl=(1.0, 1.0), q_dl=(1.0,))
        more_own = make_alloc(p_dl=(1.0 + bump, 1.0), q_dl=(1.0,))
        more_other = make_alloc(p_dl=(1.0, 1.0 + bump), q_dl=(1.0,))
        s0, _ = self.unicast(base)
        s1, _ = self.unicast(more_own)
        s2, _ = self.unicast(more_other)
        assert s1[0] > s0[0]
        assert s2[0] < s0[0]


class TestPowerAllocation:
    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            make_alloc(p_dl=(-0.1, 1.0))

    @pytest.mark.parametrize("field, value", [
        ("p_dl", (math.nan, 1.0)), ("q_dl", (math.nan,)),
        ("p_up", (1.0, math.nan)), ("q_up", ((1.0, math.nan),))])
    def test_nan_power_rejected(self, field, value):
        with pytest.raises(ValueError, match="nonnegative"):
            make_alloc(**{field: value})

    def test_totals(self):
        alloc = make_alloc(p_dl=(1.0, 2.0), q_dl=(0.5,))
        assert alloc.unicast_power == 3.0
        assert alloc.multicast_power == 0.5


@pytest.fixture
def three_groups():
    """Unequal groups (1, 2, 3), unequal pilot budgets, one zero pilot power."""
    config = SystemConfig(
        n_antennas=16, n_unicast=2, n_groups=3, group_sizes=[1, 2, 3],
        coherence_symbols=200, total_dl_power=5.0,
        unicast_energy_budgets=[10.0, 10.0],
        multicast_energy_budgets=[[10.0], [6.0, 12.0], [9.0, 4.0, 15.0]],
    )
    profile = LargeScaleProfile(beta=[0.8, 1.5],
                                eta=[[1.0], [0.6, 2.0], [0.3, 1.1, 0.7]])
    # tau = U + G = 5; pilot energies inside the budgets
    alloc = PowerAllocation(p_dl=[1.2, 0.8], q_dl=[1.0, 1.5, 0.5],
                            p_up=[2.0, 1.0],
                            q_up=[[1.5], [0.5, 2.0], [1.2, 0.0, 0.8]], tau=5)
    return config, profile, alloc


def same(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=0.0)


class TestLoopReference:
    def test_estimation_and_sinr_equal_per_group_loops(self, three_groups):
        config, profile, alloc = three_groups
        stats = EstimationStats.from_allocation(alloc, profile)
        ses = evaluate(config, alloc, profile)
        sinr, se = ses.sinr_multicast, ses.se_multicast
        total = alloc.unicast_power + alloc.multicast_power
        assert len(stats.xi) == len(sinr) == len(se) == config.n_groups
        for j, (q, eta) in enumerate(zip(alloc.q_up, profile.eta)):
            xi, gamma = estimation_variance_multicast(alloc.tau, q, eta)
            same(stats.xi[j], xi)
            same(stats.gamma[j], gamma)
            expected = config.n_antennas * alloc.q_dl[j] * xi / (
                1.0 + np.asarray(eta) * total)
            same(sinr[j], expected)
            same(se[j], config.prelog(alloc.tau) * np.log2(1.0 + expected))
        # the zero pilot power gives that member no estimate and no SINR
        assert stats.xi[2][1] == 0.0 and sinr[2][1] == 0.0

    def test_mmf_equals_per_group_loops(self, three_groups):
        config, profile, _ = three_groups
        P, N, tau = config.total_dl_power, config.n_antennas, config.n_pilots
        p_un = 0.4 * P
        sol = solve_mmf(config, profile, p_un)
        upsilon, x_star = [], []
        for eta, budget in zip(profile.eta, config.multicast_energy_budgets):
            eta, budget = np.asarray(eta), np.asarray(budget)
            upsilon.append(min(budget * eta**2 / (1.0 + eta * P)))
            x_star.append((1.0 + eta * P) / eta**2 * upsilon[-1])
        denom = (P * config.n_multicast + sum(1.0 / u for u in upsilon)
                 + sum(float(np.sum(1.0 / np.asarray(e))) for e in profile.eta))
        common = N * (P - p_un) / denom
        same(sol.upsilon, upsilon)
        assert len(sol.x_star) == len(sol.q_up) == config.n_groups
        for j, eta in enumerate(profile.eta):
            same(sol.x_star[j], x_star[j])
            same(sol.q_up[j], x_star[j] / tau)
            # with these pilots every member of the group reaches the
            # common SINR at the group's downlink power
            xi, _ = estimation_variance_multicast(tau, sol.q_up[j], eta)
            same(sol.q_dl[j], common * np.max((1.0 + np.asarray(eta) * P)
                                              / (N * xi)))
            same(N * sol.q_dl[j] * xi / (1.0 + np.asarray(eta) * P), common)


class TestGroupLayoutMismatch:
    """A profile or allocation with other groups than the config raises."""

    def setup_method(self):
        self.config = make_system(n_unicast=2, n_groups=2, group_sizes=(2, 1))
        self.profile = LargeScaleProfile(beta=[0.8, 1.5],
                                         eta=[[1.0, 0.6], [0.9]])

    def test_profile_with_other_groups(self):
        one_group = LargeScaleProfile(beta=[0.8, 1.5], eta=[[1.0, 0.6]])
        with pytest.raises(ValueError, match="group sizes"):
            solve_mmf(self.config, one_group, 1.0)

    @pytest.mark.parametrize("matching_profile", [True, False])
    def test_allocation_with_other_groups(self, matching_profile):
        alloc = make_alloc(tau=4)  # one group of two: lacks group 2
        profile = self.profile if matching_profile else LargeScaleProfile(
            beta=[0.8, 1.5], eta=[[1.0, 0.6]])
        with pytest.raises(ValueError):
            evaluate(self.config, alloc, profile)
        with pytest.raises(ValueError, match="group sizes"):
            alloc.check_feasible(self.config)


class TestAllocationRejections:
    def test_tau_below_one(self):
        with pytest.raises(ValueError, match="tau must be a positive"):
            make_alloc(tau=0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="p_dl and p_up"):
            make_alloc(p_up=(1.0,))
        with pytest.raises(ValueError, match="q_dl and q_up"):
            make_alloc(q_dl=(1.0, 1.0))

    def test_multicast_member_over_its_pilot_budget(self):
        cfg = make_system(n_groups=2, group_sizes=(1, 2), energy=10.0)
        # tau = 4: member 1 of group 1 spends 4 * 3 = 12 > 10
        alloc = make_alloc(q_dl=(1.0, 1.0), q_up=((1.0,), (1.0, 3.0)),
                           tau=4)
        with pytest.raises(InfeasibleAllocationError,
                           match="user 1 of group 1"):
            alloc.check_feasible(cfg)

    def test_multicast_variance_with_mismatched_lengths(self):
        with pytest.raises(ValueError, match="matching lengths"):
            estimation_variance_multicast(3, [1.0, 2.0], [1.0])
