import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmjoint.closed_form import (
    EstimationStats,
    PowerAllocation,
    estimation_variance_multicast,
    estimation_variance_unicast,
    evaluate,
)
from mmjoint import optimizers
from mmjoint.cli import DEFAULT_CONFIG, load_config
from mmjoint.optimizers import (
    ConvexityReport,
    MmfSolution,
    OracleInstanceTooLarge,
    WsseSolution,
    brute_force_oracle,
    check_convexity,
    pareto_sweep,
    solve_mmf,
    solve_wsse,
)
from mmjoint.scenario import LargeScaleProfile

from conftest import make_system, random_scenario

LN2 = math.log(2.0)


def mmf_allocation(config, sol, p_un):
    # the solver fixes the *total* unicast power; its split across unicast
    # users does not enter the multicast SINRs
    u = config.n_unicast
    return PowerAllocation(
        p_dl=[p_un / u] * u,
        q_dl=sol.q_dl,
        p_up=[0.0] * u,
        q_up=sol.q_up,
        tau=sol.tau,
    )


def equalized_min_sinr(config, profile, q_up, tau, p_mu):
    """Best min-SINR over downlink powers for *fixed* pilots: equalize
    N*q_j*m_j across groups, where m_j is the group's worst coefficient."""
    m = []
    for q_g, eta_g in zip(q_up, profile.eta):
        xi, _ = estimation_variance_multicast(tau, q_g, eta_g)
        m.append(float(np.min(xi / (1.0 + np.asarray(eta_g)
                                    * config.total_dl_power))))
    if any(v == 0.0 for v in m):
        return 0.0
    return config.n_antennas * p_mu / sum(1.0 / v for v in m)


class TestSolveMmf:
    def test_all_power_to_unicast(self, small_system, small_profile):
        sol = solve_mmf(small_system, small_profile,
                        p_un=small_system.total_dl_power)
        assert sol.objective == 0.0
        assert sol.common_sinr == 0.0
        assert all(q == 0.0 for q in sol.q_dl)

    def test_out_of_range_power(self, small_system, small_profile):
        with pytest.raises(ValueError):
            solve_mmf(small_system, small_profile, p_un=-0.1)
        with pytest.raises(ValueError):
            solve_mmf(small_system, small_profile,
                      p_un=small_system.total_dl_power + 0.1)

    def test_single_group_single_user_hand_evaluation(self):
        # G = 1, K = 1, eta = 1, energy-rich pilot E = P * (U + G)
        P, T, N = 3.0, 200, 64
        u_plus_g = 2
        cfg = make_system(n_unicast=1, n_groups=1, group_sizes=(1,),
                          n_antennas=N, coherence_symbols=T,
                          total_dl_power=P, energy=P * u_plus_g)
        profile = LargeScaleProfile(beta=[1.0], eta=[[1.0]])
        sol = solve_mmf(cfg, profile, p_un=0.0)
        upsilon = P * u_plus_g / (1.0 + P)
        sinr = N * P / (P * 1 + 1.0 / upsilon + 1.0)
        expected = (1.0 - u_plus_g / T) * math.log2(1.0 + sinr)
        assert sol.upsilon[0] == pytest.approx(upsilon, rel=1e-14)
        assert sol.objective == pytest.approx(expected, rel=1e-14)

    def test_tau_is_pilot_count(self, small_system, small_profile):
        sol = solve_mmf(small_system, small_profile, p_un=1.0)
        assert sol.tau == small_system.n_pilots

    @pytest.mark.parametrize("seed", range(5))
    def test_power_sum_and_equal_ses(self, seed):
        rng = np.random.default_rng(seed)
        config, profile = random_scenario(rng, u_max=5, g_max=4, k_max=6)
        P = config.total_dl_power
        p_un = float(rng.uniform(0.0, 0.9)) * P
        sol = solve_mmf(config, profile, p_un)
        assert sum(sol.q_dl) == pytest.approx(P - p_un, rel=1e-12)
        # recompute every user's SE through the closed-form chain
        ses = evaluate(config, mmf_allocation(config, sol, p_un), profile)
        flat = [s for g in ses.se_multicast for s in g]
        assert (max(flat) - min(flat)) <= 1e-9 * max(flat)
        assert max(flat) == pytest.approx(sol.objective, rel=1e-12)

    def test_pilot_energy_constraint_respected(self, rng):
        config, profile = random_scenario(rng, u_max=3, g_max=3, k_max=4)
        sol = solve_mmf(config, profile, p_un=0.0)
        for q_g, e_g in zip(sol.q_up, config.multicast_energy_budgets):
            for q, e in zip(q_g, e_g):
                assert sol.tau * q <= e * (1 + 1e-12)

    def test_pilot_perturbation_never_helps(self, rng):
        # shrinking any optimal pilot power by 1% and re-optimizing the
        # downlink powers cannot raise the minimum SE
        config, profile = random_scenario(rng, u_max=3, g_max=2, k_max=2)
        P = config.total_dl_power
        p_un = 0.25 * P
        sol = solve_mmf(config, profile, p_un)
        base = equalized_min_sinr(config, profile, sol.q_up, sol.tau, P - p_un)
        assert base == pytest.approx(sol.common_sinr, rel=1e-10)
        for j, grp in enumerate(sol.q_up):
            for k in range(len(grp)):
                q_up = [list(g) for g in sol.q_up]
                q_up[j][k] *= 0.99
                perturbed = equalized_min_sinr(config, profile, q_up,
                                               sol.tau, P - p_un)
                assert perturbed <= base * (1 + 1e-12)

    def test_degenerate_zero_total_power(self, small_profile):
        cfg = make_system(total_dl_power=0.0)
        sol = solve_mmf(cfg, small_profile, p_un=0.0)
        assert sol.objective == 0.0
        assert all(q == 0.0 for q in sol.q_dl)


class TestSolveWsse:
    def test_single_user_takes_all_power(self):
        cfg = make_system(n_unicast=1, total_dl_power=5.0)
        profile = LargeScaleProfile(beta=[1.2], eta=[[0.5, 0.5]])
        sol = solve_wsse(cfg, profile, p_mu=0.0)
        assert sol.p_dl[0] == pytest.approx(5.0, rel=1e-12)

    def test_symmetric_users_split_equally(self):
        cfg = make_system(n_unicast=2, total_dl_power=5.0)
        profile = LargeScaleProfile(beta=[0.9, 0.9], eta=[[0.5, 0.5]])
        sol = solve_wsse(cfg, profile, p_mu=1.0)
        assert sol.p_dl[0] == pytest.approx(sol.p_dl[1], rel=1e-12)
        assert sum(sol.p_dl) == pytest.approx(4.0, rel=1e-12)

    def test_all_power_to_multicast(self, small_system, small_profile):
        sol = solve_wsse(small_system, small_profile,
                         p_mu=small_system.total_dl_power)
        assert sol.objective == 0.0
        assert all(p == 0.0 for p in sol.p_dl)
        assert sol.water_level_nu is None

    def test_out_of_range_power(self, small_system, small_profile):
        with pytest.raises(ValueError):
            solve_wsse(small_system, small_profile, p_mu=-1.0)

    def test_pilot_uses_full_energy(self, small_system, small_profile):
        sol = solve_wsse(small_system, small_profile, p_mu=1.0)
        for p, e in zip(sol.p_up, small_system.unicast_energy_budgets):
            assert sol.tau * p == pytest.approx(e, rel=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_kkt_conditions(self, seed):
        rng = np.random.default_rng(100 + seed)
        config, profile = random_scenario(rng, u_max=6, g_max=2, k_max=3)
        P = config.total_dl_power
        p_mu = float(rng.uniform(0.0, 0.9)) * P
        sol = solve_wsse(config, profile, p_mu)
        nu = sol.water_level_nu
        beta = np.asarray(profile.beta)
        alpha = np.asarray(config.unicast_weights)
        theta = np.asarray(sol.vartheta_star)
        p = np.asarray(sol.p_dl)
        N = config.n_antennas
        marginal = alpha * N * theta / (LN2 * (1.0 + beta * P + N * theta * p))
        active = p > 0.0
        assert np.all(np.abs(marginal[active] - nu) <= 1e-8 * nu)
        assert np.all(marginal[~active] <= nu * (1 + 1e-12))

    def test_objective_consistent_with_closed_form(self, rng):
        config, profile = random_scenario(rng, u_max=5, g_max=2, k_max=2)
        P = config.total_dl_power
        sol = solve_wsse(config, profile, p_mu=0.4 * P)
        beta = np.asarray(profile.beta)
        theta = np.asarray(sol.vartheta_star)
        sinr = config.n_antennas * np.asarray(sol.p_dl) * theta / (1 + beta * P)
        expected = config.prelog(sol.tau) * float(
            np.dot(config.unicast_weights, np.log2(1.0 + sinr))
        )
        assert sol.objective == pytest.approx(expected, rel=1e-15)

    @given(st.integers(0, 2**31 - 1), st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=60, deadline=None)
    def test_power_constraint_binds(self, seed, frac):
        rng = np.random.default_rng(seed)
        config, profile = random_scenario(rng, u_max=8, g_max=3, k_max=4)
        P = config.total_dl_power
        sol = solve_wsse(config, profile, p_mu=frac * P)
        assert sum(sol.p_dl) == pytest.approx(P * (1 - frac), rel=1e-10)

    def test_water_level_decreases_with_budget(self, rng):
        config, profile = random_scenario(rng, u_max=5, g_max=2, k_max=2)
        P = config.total_dl_power
        lo = solve_wsse(config, profile, p_mu=0.8 * P)
        hi = solve_wsse(config, profile, p_mu=0.2 * P)
        # more unicast power means a lower water level
        assert hi.water_level_nu < lo.water_level_nu

    def test_degenerate_zero_total_power(self, small_profile):
        cfg = make_system(total_dl_power=0.0)
        sol = solve_wsse(cfg, small_profile, p_mu=0.0)
        assert sol.objective == 0.0
        assert all(p == 0.0 for p in sol.p_dl)

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_unicast_power_on_breakpoints(self, ulps):
        # users 1 and 2 share beta and weight, so they turn on together
        P = 8.0
        config = make_system(n_unicast=5, total_dl_power=P,
                             weights=[1.0, 1.0, 1.0, 1.5, 0.7])
        profile = LargeScaleProfile(beta=[1.5, 0.9, 0.9, 0.4, 0.2],
                                    eta=[[0.5, 0.5]])
        alpha = np.asarray(config.unicast_weights)
        beta = np.asarray(profile.beta)
        energy = np.asarray(config.unicast_energy_budgets)
        theta = energy * beta**2 / (1.0 + energy * beta)
        floors = (1.0 + beta * P) / (config.n_antennas * theta)
        # unicast power at the water level where user k turns on
        breakpoints = np.maximum(
            0.0, np.outer(floors / alpha, alpha) - floors).sum(axis=1)
        assert breakpoints[1] == breakpoints[2]
        # the zero breakpoint of the strongest user is the p_mu = P case
        for b in sorted(set(breakpoints[breakpoints > 0.0])):
            p_mu = float(np.nextafter(P - b, ulps * np.inf)) if ulps else P - b
            sol = solve_wsse(config, profile, p_mu)
            target = P - p_mu
            assert sum(sol.p_dl) == pytest.approx(target, rel=1e-10)
            nu = sol.water_level_nu
            p = np.asarray(sol.p_dl)
            marginal = alpha / (LN2 * (floors + p))
            active = p > 0.0
            assert np.all(np.abs(marginal[active] - nu) <= 1e-8 * nu)
            assert np.all(marginal[~active] <= nu * (1 + 1e-12))


def swept(config, profile, n_points):
    """The boundary (p_un, o_mu, o_un) of ``pareto_sweep``."""
    sweep = pareto_sweep(config, profile, n_points)
    return sweep.p_un, sweep.mmf.objective, sweep.wsse.objective


def row(sweep, i):
    """Row i of a ``pareto_sweep`` result as the one-split solvers return it:
    (its ``MmfSolution``, its ``WsseSolution``)."""
    mmf, wsse = sweep.mmf, sweep.wsse
    nu = wsse.nu[i]
    return (MmfSolution(mmf.objective[i], mmf.common_sinr[i],
                        mmf.q_dl[i].tolist(), mmf.q_up, mmf.tau,
                        mmf.upsilon.tolist(), mmf.x_star),
            WsseSolution(wsse.objective[i], wsse.p_dl[i].tolist(),
                         wsse.p_up.tolist(), wsse.tau,
                         None if math.isinf(nu) else nu,
                         wsse.vartheta_star.tolist()))


class TestParetoSweep:
    def test_point_count_and_split(self, small_system, small_profile):
        sweep = pareto_sweep(small_system, small_profile, n_points=21)
        P = small_system.total_dl_power
        assert sweep.p_un.tolist() == (np.linspace(0.0, 1.0, 21) * P).tolist()
        assert np.all(sweep.p_un + sweep.p_mu == P)
        assert sweep.mmf.objective.shape == sweep.wsse.objective.shape \
            == sweep.p_mu.shape == (21,)

    def test_endpoints(self, small_system, small_profile):
        p_un, o_mu, o_un = swept(small_system, small_profile, 11)
        assert p_un[0] == 0.0 and o_un[0] == 0.0
        assert p_un[-1] == small_system.total_dl_power and o_mu[-1] == 0.0

    def test_monotone_objectives(self, small_system, small_profile):
        _, o_mu, o_un = swept(small_system, small_profile, 15)
        assert np.all(np.diff(o_mu) < 0)
        assert np.all(np.diff(o_un) > 0)

    def test_too_few_points(self, small_system, small_profile):
        with pytest.raises(ValueError):
            pareto_sweep(small_system, small_profile, n_points=1)

    @pytest.mark.parametrize("seed", range(3))
    def test_points_equal_single_solves(self, seed):
        rng = np.random.default_rng(200 + seed)
        config, profile = random_scenario(rng, u_max=8, g_max=3, k_max=4)
        sweep = pareto_sweep(config, profile, n_points=31)
        for i in range(31):
            assert (solve_mmf(config, profile, sweep.p_un[i]),
                    solve_wsse(config, profile, sweep.p_mu[i])) \
                == row(sweep, i)
        # no water level where no unicast power is left: at p_un = 0 only
        assert np.isinf(sweep.wsse.nu).tolist() == [True] + [False] * 30
        assert solve_wsse(config, profile, sweep.p_mu[0]).water_level_nu \
            is None

    def test_one_split_solvers_are_the_core_at_one_split(self, small_system,
                                                         small_profile):
        split = np.array([0.3 * small_system.total_dl_power])
        mmf = optimizers.mmf_arrays(small_system, small_profile, split)
        wsse = optimizers.wsse_arrays(small_system, small_profile, split)
        sol = solve_mmf(small_system, small_profile, split[0])
        assert (sol.objective, sol.common_sinr, sol.q_dl) == (
            mmf.objective[0], mmf.common_sinr[0], mmf.q_dl[0].tolist())
        sol = solve_wsse(small_system, small_profile, split[0])
        assert (sol.objective, sol.p_dl, sol.water_level_nu) == (
            wsse.objective[0], wsse.p_dl[0].tolist(), wsse.nu[0])


def arrays(*points):
    """The boundary (p_un, o_mu, o_un) through the given points."""
    return np.array(points, dtype=float).reshape(-1, 3).T


class TestCheckConvexity:
    def test_collinear_points(self):
        report = check_convexity(*arrays((0.0, 3.0, 0.0), (0.5, 2.0, 1.0),
                                         (1.0, 1.0, 2.0)))
        assert report.is_consistent
        assert report.max_violation == 0.0

    def test_real_sweep_is_convex(self, small_system, small_profile):
        report = check_convexity(*swept(small_system, small_profile, 21))
        assert report.is_consistent
        assert report.max_violation < 1e-9

    def test_perturbed_point_detected(self, small_system, small_profile):
        p_un, o_mu, o_un = swept(small_system, small_profile, 21)
        o_un[10] *= 1.10
        report = check_convexity(p_un, o_mu, o_un)
        assert not report.is_consistent
        assert report.max_violation > 1e-9

    def test_requires_sorted_points(self):
        with pytest.raises(ValueError, match="sorted"):
            check_convexity(*arrays((0.5, 2.0, 1.0), (0.0, 3.0, 0.0),
                                    (1.0, 1.0, 2.0)))

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            check_convexity(*arrays((0.0, 3.0, 0.0), (1.0, 1.0, 2.0)))


def row_by_row_convexity(p_un, o_mu, o_un, tol=1e-9):
    """check_convexity with one row of pairs (i, j > i) at a time."""
    order = np.argsort(o_mu)
    x, y = o_mu[order], o_un[order]
    slopes = np.diff(y) / np.diff(x)
    slope_violation = float(max(0.0, np.max(np.diff(slopes), initial=0.0)))
    dominance_violation = 0.0
    for i in range(len(x) - 1):
        mid_x = 0.5 * (x[i] + x[i + 1:])
        mid_y = 0.5 * (y[i] + y[i + 1:])
        dominance_violation = max(
            dominance_violation, float(np.max(mid_y - np.interp(mid_x, x, y)))
        )
    max_violation = max(slope_violation, dominance_violation)
    return ConvexityReport(
        is_consistent=bool(max_violation <= tol),
        max_violation=max_violation,
        slope_violation=slope_violation,
        dominance_violation=dominance_violation,
    )


def boundary(kind, n, rng):
    """A fake boundary (p_un, o_mu, o_un) of one kind; o_mu falls as p_un
    grows."""
    x = np.sort(rng.uniform(0.0, 10.0, n))[::-1]
    if kind == "non-concave":
        y = rng.uniform(0.0, 10.0, n)
    elif kind == "concave-plus-noise":
        y = np.sqrt(10.0 - x) + rng.normal(0.0, 1e-3, n)
    else:  # collinear
        y = 7.0 - 0.6 * x
    return np.arange(n) / (n - 1), x, y


class TestBlockedConvexityCheck:
    @pytest.mark.parametrize("kind", ["non-concave", "concave-plus-noise",
                                      "collinear"])
    @pytest.mark.parametrize("n", [3, 4, 17, 200])
    def test_equals_row_by_row(self, kind, n, monkeypatch):
        rng = np.random.default_rng(n)
        for _ in range(5):
            curve = boundary(kind, n, rng)
            expected = row_by_row_convexity(*curve)
            assert check_convexity(*curve) == expected
            for block in (1, 2, n - 1, n, n * n):
                monkeypatch.setattr(optimizers, "_PAIR_BLOCK", block)
                assert check_convexity(*curve) == expected
            monkeypatch.undo()

    def test_real_sweep_equals_row_by_row(self, small_system, small_profile):
        p_un, o_mu, o_un = swept(small_system, small_profile, 401)
        assert check_convexity(p_un, o_mu, o_un) \
            == row_by_row_convexity(p_un, o_mu, o_un)
        o_un[200] *= 1.01
        assert check_convexity(p_un, o_mu, o_un) \
            == row_by_row_convexity(p_un, o_mu, o_un)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            check_convexity(*arrays((0.0, 3.0, 0.0), (0.5, 2.0, math.nan),
                                    (1.0, 1.0, 2.0)))


def dense_sweep(n_antennas, n_points):
    """(p_un, o_mu, o_un) of the pareto-dense boundary: the default scenario,
    seed-1 drop."""
    cfg = load_config(copy.deepcopy(DEFAULT_CONFIG))
    return swept(cfg.system(n_antennas=n_antennas), cfg.profile, n_points)


def interp_elements(monkeypatch, p_un, o_mu, o_un):
    """Midpoints check_convexity passes to np.interp."""
    count, interp = [0], np.interp

    def counted(x, *args, **kwargs):
        count[0] += np.size(x)
        return interp(x, *args, **kwargs)

    monkeypatch.setattr(np, "interp", counted)
    check_convexity(p_un, o_mu, o_un)
    monkeypatch.setattr(np, "interp", interp)
    return count[0]


class TestCertifiedConvexityCheck:
    @pytest.mark.parametrize("n_antennas, n_points", [
        (50, 1001), (100, 1001), (200, 1001), (100, 4001)])
    def test_dense_sweep_equals_row_by_row(self, n_antennas, n_points,
                                           monkeypatch):
        p_un, o_mu, o_un = dense_sweep(n_antennas, n_points)
        expected = row_by_row_convexity(p_un, o_mu, o_un)
        n = n_points
        for block in (optimizers._PAIR_BLOCK, 1, 2, n - 1, n, n * n):
            monkeypatch.setattr(optimizers, "_PAIR_BLOCK", block)
            assert check_convexity(p_un, o_mu, o_un) == expected

    @given(n=st.integers(3, 60), seed=st.integers(0, 2**32 - 1),
           spread=st.floats(1.0, 6.0),
           curve=st.sampled_from(["parabola", "sqrt", "log"]),
           x_exp=st.floats(-6.0, 6.0), y_exp=st.floats(-6.0, 6.0),
           x_offset=st.sampled_from([0.0, 1e6]),
           y_offset=st.sampled_from([0.0, 1e6]),
           perturb=st.none() | st.tuples(st.integers(0, 59),
                                         st.floats(-15.0, -1.0),
                                         st.sampled_from([-1.0, 1.0])),
           block=st.sampled_from([1, 2, 1 << 14]))
    @settings(max_examples=300, deadline=None)
    def test_concave_curves_equal_row_by_row(self, n, seed, spread, curve,
                                             x_exp, y_exp, x_offset,
                                             y_offset, perturb, block):
        # strictly concave y(x) on randomly spaced knots (gaps spanning up to
        # 12 decades); the offsets make rounding large next to the curvature
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.uniform(0.01, 1.0, n) ** spread)
        t = (t - t[0]) / (t[-1] - t[0])
        shift = rng.uniform(1e-9, 1.0)
        g = {"parabola": -(t - rng.uniform(-1.0, 2.0)) ** 2,
             "sqrt": np.sqrt(t + shift), "log": np.log(t + shift)}[curve]
        x = 10.0 ** x_exp * t + x_offset
        y = 10.0 ** y_exp * g + y_offset
        if perturb is not None:
            k, size_exp, sign = perturb
            y[k % n] += sign * 10.0 ** (y_exp + size_exp)
        assume(np.all(np.diff(x) > 0))
        p_un, o_mu, o_un = np.arange(n, dtype=float), x[::-1], y[::-1]
        expected = row_by_row_convexity(p_un, o_mu, o_un)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizers, "_PAIR_BLOCK", block)
            assert check_convexity(p_un, o_mu, o_un) == expected

    def test_offset_grids_where_midpoints_round(self):
        # x = 1e6 + tiny gaps: rounding a midpoint moves the interpolant by
        # up to about eps*max|slope|*max|x|, more than the gaps of near
        # pairs, so a row may retire only below -2E, not below 0
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 12))
            t = np.cumsum(rng.uniform(0.01, 1.0, n) ** rng.uniform(1.0, 6.0))
            t = (t - t[0]) / (t[-1] - t[0])
            x = 1e6 + 10.0 ** rng.uniform(-6.0, 0.0) * t
            y = -(10.0 ** rng.uniform(0.0, 6.0)) \
                * (t - rng.uniform(-1.0, 2.0)) ** 2
            if np.any(np.diff(x) <= 0):
                continue
            p_un, o_mu, o_un = np.arange(n, dtype=float), x[::-1], y[::-1]
            assert check_convexity(p_un, o_mu, o_un) \
                == row_by_row_convexity(p_un, o_mu, o_un)

    def test_certified_sweep_visits_linear_pairs(self, monkeypatch):
        p_un, o_mu, o_un = dense_sweep(100, 1001)
        n = len(p_un)
        assert interp_elements(monkeypatch, p_un, o_mu, o_un) <= 4 * n

    @pytest.mark.parametrize("kind", ["non-concave", "concave-plus-noise",
                                      "collinear"])
    def test_uncertified_input_visits_each_pair_once_at_most(
            self, kind, monkeypatch):
        n = 200
        p_un, o_mu, o_un = boundary(kind, n, np.random.default_rng(7))
        for block in (optimizers._PAIR_BLOCK, 1, 2, n - 1, n, n * n):
            monkeypatch.setattr(optimizers, "_PAIR_BLOCK", block)
            assert interp_elements(monkeypatch, p_un, o_mu, o_un) \
                <= n * (n - 1) // 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_p_un(self, bad):
        with pytest.raises(ValueError, match="finite"):
            check_convexity(*arrays((0.0, 3.0, 0.0), (bad, 2.0, 1.0),
                                    (1.0, 1.0, 2.0)))


class TestBruteForceOracle:
    def test_instance_size_guard(self, small_profile):
        big = make_system(n_unicast=4, n_groups=1, group_sizes=(2,))
        prof = LargeScaleProfile(beta=[1.0] * 4, eta=[[1.0, 1.0]])
        with pytest.raises(OracleInstanceTooLarge):
            brute_force_oracle(big, prof, "mmf", 100)
        with pytest.raises(OracleInstanceTooLarge):
            brute_force_oracle(make_system(), small_profile, "mmf", 10_000)

    def test_mmf_single_user_group_gap_below_grid_resolution(self):
        cfg = make_system(n_unicast=1, n_groups=1, group_sizes=(1,),
                          total_dl_power=3.0, energy=6.0)
        profile = LargeScaleProfile(beta=[1.0], eta=[[1.0]])
        sol = solve_mmf(cfg, profile, p_un=0.0)
        oracle = brute_force_oracle(cfg, profile, "mmf", 1000, p_un=0.0)
        assert oracle.objective <= sol.objective * (1 + 1e-9)
        # with one group the downlink split is exact and the full-energy
        # pilot lies on the fraction grid, so the gap is pure roundoff
        assert sol.objective - oracle.objective < 1e-9

    def test_wsse_symmetric_split(self):
        cfg = make_system(n_unicast=2, total_dl_power=4.0)
        profile = LargeScaleProfile(beta=[1.0, 1.0], eta=[[0.7, 0.7]])
        oracle = brute_force_oracle(cfg, profile, "wsse", 100, p_mu=0.0)
        assert oracle.dl_powers[0] == pytest.approx(oracle.dl_powers[1],
                                                    abs=4.0 / 100 + 1e-12)

    def test_oracle_never_beats_closed_forms(self, rng):
        for _ in range(3):
            config, profile = random_scenario(rng, u_max=3, g_max=2, k_max=2)
            P = config.total_dl_power
            mmf = solve_mmf(config, profile, p_un=0.3 * P)
            o_mmf = brute_force_oracle(config, profile, "mmf", 300,
                                       p_un=0.3 * P)
            assert o_mmf.objective <= mmf.objective * (1 + 1e-9)
            wsse = solve_wsse(config, profile, p_mu=0.3 * P)
            o_wsse = brute_force_oracle(config, profile, "wsse", 150,
                                        p_mu=0.3 * P)
            assert o_wsse.objective <= wsse.objective * (1 + 1e-9)

    def test_oracle_confirms_minimal_pilot_length(self):
        # tau = U + G dominates every longer pilot on a small instance
        cfg = make_system(n_unicast=2, n_groups=1, group_sizes=(2,),
                          total_dl_power=4.0, coherence_symbols=20)
        profile = LargeScaleProfile(beta=[1.0, 0.5], eta=[[0.8, 0.4]])
        oracle = brute_force_oracle(cfg, profile, "mmf", 200, p_un=1.0)
        assert oracle.tau == cfg.n_pilots

    def test_invalid_objective(self, small_system, small_profile):
        with pytest.raises(ValueError):
            brute_force_oracle(small_system, small_profile, "other", 10)


# The oracle as a loop over every pilot combination and group: the reference
# that the array search in brute_force_oracle must match field for field.
def loop_simplex_grid(n_vars, steps):
    if n_vars == 1:
        return np.ones((1, 1))
    if n_vars == 2:
        t = np.linspace(0.0, 1.0, steps + 1)
        return np.column_stack([t, 1.0 - t])
    rows = []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            rows.append((i / steps, j / steps, (steps - i - j) / steps))
    return np.asarray(rows)


def loop_oracle(config, profile, objective, grid_steps, p_un=0.0, p_mu=0.0,
                pilot_fractions=(0.25, 0.5, 0.75, 1.0), tau_span=4):
    P = config.total_dl_power
    taus = range(config.n_pilots, min(config.coherence_symbols,
                                      config.n_pilots + tau_span) + 1)
    best = optimizers.OracleResult(-math.inf, 0, [], [])
    if objective == "mmf":
        p_mu = P - p_un
        eta = [np.asarray(g, dtype=float) for g in profile.eta]
        budgets = [np.asarray(g, dtype=float)
                   for g in config.multicast_energy_budgets]
        n_users = [len(g) for g in eta]
        splits = loop_simplex_grid(config.n_groups, grid_steps)
        for tau in taus:
            prelog = config.prelog(tau)
            for fracs in itertools.product(pilot_fractions,
                                           repeat=sum(n_users)):
                it = iter(fracs)
                q_up = [np.array([next(it) for _ in range(k)]) * bud / tau
                        for k, bud in zip(n_users, budgets)]
                coeffs = []
                for q_g, eta_g in zip(q_up, eta):
                    xi, _ = estimation_variance_multicast(tau, q_g, eta_g)
                    coeffs.append(np.min(xi / (1.0 + eta_g * P)))
                coeffs = np.asarray(coeffs)
                min_sinr = np.min(
                    config.n_antennas * splits * p_mu * coeffs, axis=1)
                idx = int(np.argmax(min_sinr))
                obj = prelog * math.log2(1.0 + float(min_sinr[idx]))
                if obj > best.objective:
                    best = optimizers.OracleResult(
                        obj, tau, list(splits[idx] * p_mu),
                        [list(q) for q in q_up])
        return best
    p_un = P - p_mu
    beta = np.asarray(profile.beta, dtype=float)
    alpha = np.asarray(config.unicast_weights, dtype=float)
    energy = np.asarray(config.unicast_energy_budgets, dtype=float)
    splits = loop_simplex_grid(config.n_unicast, grid_steps)
    for tau in taus:
        prelog = config.prelog(tau)
        for fracs in itertools.product(pilot_fractions,
                                       repeat=config.n_unicast):
            p_up = np.asarray(fracs) * energy / tau
            vartheta = estimation_variance_unicast(tau, p_up, beta)
            gain = config.n_antennas * vartheta / (1.0 + beta * P)
            obj_all = prelog * np.sum(
                alpha * np.log2(1.0 + splits * p_un * gain), axis=1)
            idx = int(np.argmax(obj_all))
            if obj_all[idx] > best.objective:
                best = optimizers.OracleResult(
                    float(obj_all[idx]), tau, list(splits[idx] * p_un),
                    list(p_up))
    return best


def oracle_cases():
    """(config, profile, objective, grid_steps, fraction of P left to the
    searched service) for the reference comparison."""
    rng = np.random.default_rng(505)
    for k in range(32):  # criterion 2/3-style, in both unit systems
        config, profile = random_scenario(rng, u_max=3, g_max=2, k_max=2,
                                          physical_units=k % 2 == 0)
        yield (config, profile, "mmf", 250, float(rng.uniform(0.2, 1.0)))
        yield (config, profile, "wsse", 40, float(rng.uniform(0.2, 1.0)))
    one = make_system(n_unicast=1, n_groups=1, group_sizes=(1,))
    one_profile = LargeScaleProfile(beta=[0.7], eta=[[1.3]])
    # T = U + G + 1: two pilot lengths, the longer one with prelog 0
    short = make_system(n_unicast=2, n_groups=1, group_sizes=(2,),
                        coherence_symbols=4)
    short_profile = LargeScaleProfile(beta=[0.8, 1.5], eta=[[1.0, 0.6]])
    full = make_system(n_unicast=3, n_groups=2, group_sizes=(2, 2),
                       weights=[0.5, 2.0, 1.25])
    full_profile = LargeScaleProfile(beta=[0.8, 1.5, 0.3],
                                     eta=[[1.0, 0.6], [0.2, 2.0]])
    for config, profile in [(one, one_profile), (short, short_profile),
                            (full, full_profile)]:
        for objective, steps in [("mmf", 120), ("wsse", 30)]:
            # 0.0: every objective is 0, so the first candidate wins
            for share in (0.0, 0.6):
                yield (config, profile, objective, steps, share)
    # an objective that numpy's log2 rounds differently from math.log2
    yield (one, one_profile, "mmf", 1, 0.0326872)


class TestOracleMatchesLoopReference:
    def test_same_result_as_the_loop_oracle(self):
        n = 0
        for config, profile, objective, steps, share in oracle_cases():
            P = config.total_dl_power
            kw = ({"p_un": (1.0 - share) * P} if objective == "mmf"
                  else {"p_mu": (1.0 - share) * P})
            assert brute_force_oracle(config, profile, objective, steps,
                                      **kw) \
                == loop_oracle(config, profile, objective, steps, **kw), \
                (objective, steps, share, config)
            n += 1
        assert n >= 40


class TestBoundaryConvexityRejections:
    def test_repeated_o_mu_values(self):
        with pytest.raises(ValueError, match="distinct"):
            check_convexity(np.array([0.0, 1.0, 2.0]),
                            np.array([1.0, 1.0, 0.0]),
                            np.array([0.0, 1.0, 2.0]))
