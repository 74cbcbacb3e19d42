"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines.
"""

import json
import math
import time

import numpy as np
import pytest

from mmjoint.cli import load_config_file, main
from mmjoint.closed_form import (
    EstimationStats,
    PowerAllocation,
    evaluate,
    pilot_scaling,
)
from mmjoint.montecarlo import (
    draw_channels,
    empirical_sinr,
    estimate_channels,
    mrt_precoders,
)
from mmjoint.optimizers import (
    brute_force_oracle,
    check_convexity,
    pareto_sweep,
    solve_mmf,
    solve_wsse,
)
from mmjoint.scenario import LargeScaleProfile

from conftest import make_system, random_scenario
from test_cli import SMALL_CONFIG


def report(criterion: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def mmf_allocation(config, sol, p_un):
    u = config.n_unicast
    return PowerAllocation(p_dl=[p_un / u] * u, q_dl=sol.q_dl,
                           p_up=[0.0] * u, q_up=sol.q_up, tau=sol.tau)


def test_criterion_1_equal_se_and_power_sum():
    rng = np.random.default_rng(101)
    cases = []
    for _ in range(100):
        config, profile = random_scenario(rng, u_max=20, g_max=10, k_max=100)
        cases.append((config, profile, float(rng.uniform(0.0, 1.0))))
    start = time.perf_counter()
    worst_spread, worst_sum = 0.0, 0.0
    for config, profile, frac in cases:
        P = config.total_dl_power
        p_un = frac * P
        sol = solve_mmf(config, profile, p_un)
        worst_sum = max(worst_sum, abs(sum(sol.q_dl) - (P - p_un)) / P)
        ses = evaluate(config, mmf_allocation(config, sol, p_un), profile)
        flat = [s for g in ses.se_multicast for s in g]
        if max(flat) > 0:
            worst_spread = max(worst_spread,
                               (max(flat) - min(flat)) / max(flat))
    elapsed = time.perf_counter() - start
    ok = worst_spread < 1e-9 and worst_sum < 1e-12 and elapsed < 1.0
    report(1, ok, f"100 scenarios: SE spread {worst_spread:.2e}, "
                  f"power-sum error {worst_sum:.2e}, {elapsed:.2f}s")


def test_criterion_2_mmf_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_excess = -math.inf
    for _ in range(20):
        config, profile = random_scenario(rng, u_max=3, g_max=2, k_max=2)
        P = config.total_dl_power
        p_un = float(rng.uniform(0.0, 0.8)) * P
        sol = solve_mmf(config, profile, p_un)
        oracle = brute_force_oracle(config, profile, "mmf", 1000, p_un=p_un)
        excess = oracle.objective - sol.objective
        worst_excess = max(worst_excess, excess / max(sol.objective, 1e-30))
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-9 and elapsed < 120.0
    report(2, ok, f"20 instances: worst oracle excess {worst_excess:.2e} "
                  f"(grid P/1000), {elapsed:.1f}s")


def test_criterion_3_wsse_oracle_and_kkt():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst_excess, worst_kkt = -math.inf, 0.0
    for _ in range(20):
        config, profile = random_scenario(rng, u_max=3, g_max=2, k_max=2)
        P = config.total_dl_power
        p_mu = float(rng.uniform(0.0, 0.8)) * P
        sol = solve_wsse(config, profile, p_mu)
        oracle = brute_force_oracle(config, profile, "wsse", 200, p_mu=p_mu)
        worst_excess = max(worst_excess, (oracle.objective - sol.objective)
                           / max(sol.objective, 1e-30))
        # KKT: marginal utility of every active user equals the water level
        beta = np.asarray(profile.beta)
        theta = np.asarray(sol.vartheta_star)
        p = np.asarray(sol.p_dl)
        alpha = np.asarray(config.unicast_weights)
        N = config.n_antennas
        marginal = alpha * N * theta / (
            math.log(2.0) * (1.0 + beta * P + N * theta * p)
        )
        active = p > 0
        if np.any(active):
            worst_kkt = max(worst_kkt, float(np.max(
                np.abs(marginal[active] - sol.water_level_nu)
                / sol.water_level_nu)))
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-9 and worst_kkt < 1e-8 and elapsed < 120.0
    report(3, ok, f"20 instances: worst oracle excess {worst_excess:.2e}, "
                  f"worst KKT error {worst_kkt:.2e}, {elapsed:.1f}s")


def test_criterion_4_water_filling_power_constraint():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        config, profile = random_scenario(rng, u_max=10, g_max=3, k_max=5)
        P = config.total_dl_power
        for _ in range(10):
            p_mu = float(rng.uniform(0.0, 0.999)) * P
            sol = solve_wsse(config, profile, p_mu)
            worst = max(worst, abs(sum(sol.p_dl) - (P - p_mu)) / (P - p_mu))
    ok = worst < 1e-10
    report(4, ok, f"1000 (scenario, P_mu) pairs: worst relative power "
                  f"mismatch {worst:.2e}")


@pytest.fixture(scope="module")
def default_sweeps():
    cfg = load_config_file(None)  # embedded default scenario
    sweeps = {}
    start = time.perf_counter()
    for n in (50, 100, 200):
        sweeps[n] = pareto_sweep(cfg.system(n_antennas=n), cfg.profile, 21)
    elapsed = time.perf_counter() - start
    return sweeps, elapsed


def test_criterion_5_pareto_convexity(default_sweeps):
    sweeps, elapsed = default_sweeps
    worst = 0.0
    for n, sweep in sweeps.items():
        rep = check_convexity(sweep.p_un, sweep.mmf.objective,
                              sweep.wsse.objective)
        assert rep.is_consistent, f"N={n} boundary not convex"
        worst = max(worst, rep.max_violation)
    ok = worst < 1e-9 and elapsed < 1.0
    report(5, ok, f"N in {{50,100,200}}: max convexity violation "
                  f"{worst:.2e}, sweeps took {elapsed:.2f}s")


def test_criterion_6_sweep_endpoints(default_sweeps):
    sweeps, _ = default_sweeps
    ok = all(
        sweep.wsse.objective[0] == 0.0 and sweep.mmf.objective[-1] == 0.0
        for sweep in sweeps.values()
    )
    report(6, ok, "o_un = 0 at P_un = 0 and o_mu = 0 at P_un = P, exactly")


def test_criterion_7_antenna_monotonicity(default_sweeps):
    sweeps, _ = default_sweeps
    counts = sorted(sweeps)
    ok = True
    for lo, hi in zip(counts, counts[1:]):
        a, b = sweeps[lo], sweeps[hi]
        ok = ok and bool(np.all(b.mmf.objective >= a.mmf.objective)
                         and np.all(b.wsse.objective >= a.wsse.objective))
    report(7, ok, f"objectives nondecreasing in N across {counts} at every "
                  "power-split ratio")


@pytest.fixture(scope="module")
def mc_setup():
    config = make_system(n_unicast=2, n_groups=1, group_sizes=(2,),
                         n_antennas=64, total_dl_power=5.0, energy=10.0)
    profile = LargeScaleProfile(beta=[0.8, 1.5], eta=[[1.0, 0.6]])
    P = config.total_dl_power
    mmf = solve_mmf(config, profile, p_un=0.5 * P)
    wsse = solve_wsse(config, profile, p_mu=0.5 * P)
    alloc = PowerAllocation(p_dl=wsse.p_dl, q_dl=mmf.q_dl, p_up=wsse.p_up,
                            q_up=mmf.q_up, tau=config.n_pilots)
    return config, profile, alloc


def test_criterion_8_montecarlo_vs_closed_form(mc_setup):
    config, profile, alloc = mc_setup
    start = time.perf_counter()
    rep = empirical_sinr(config, profile, alloc, 20_000, seed=88)
    worst_sinr = max(u.sinr_relative_error
                     for u in rep.unicast + rep.multicast)
    terms_ok = True
    for u in rep.unicast + rep.multicast:
        own = u.self_interference + u.same_service_interference
        own_se = math.sqrt(u.self_interference_se**2
                           + u.same_service_interference_se**2)
        terms_ok = terms_ok and abs(own - u.same_service_analytic) < 3 * own_se
        terms_ok = terms_ok and (
            abs(u.cross_service_interference - u.cross_service_analytic)
            < 3 * u.cross_service_interference_se
        )
        terms_ok = terms_ok and (
            abs(u.desired_power - u.desired_power_analytic)
            < 3 * u.desired_power_se
        )
    # precoder normalization over 10^4 draws
    stats = EstimationStats.from_allocation(alloc, profile)
    rng = np.random.default_rng(89)
    n = 10_000
    v2 = np.zeros(config.n_unicast)
    w2 = np.zeros(config.n_groups)
    for _ in range(n):
        real = draw_channels(profile, config, rng)
        est = estimate_channels(real, alloc, profile, rng)
        V, W = mrt_precoders(est, alloc, stats)
        v2 += np.sum(np.abs(V) ** 2, axis=0)
        w2 += np.sum(np.abs(W) ** 2, axis=0)
    precoder_ok = (
        np.allclose(v2 / n, alloc.p_dl, rtol=0.02)
        and np.allclose(w2 / n, alloc.q_dl, rtol=0.02)
    )
    elapsed = time.perf_counter() - start
    ok = worst_sinr < 0.05 and terms_ok and precoder_ok and elapsed < 60.0
    report(8, ok, f"2e4 realizations: worst SINR error {worst_sinr:.3f}, "
                  f"terms within 3 SE: {terms_ok}, precoder powers within "
                  f"2%: {precoder_ok}, {elapsed:.1f}s")


def test_criterion_9_estimation_statistics(mc_setup):
    config, profile, alloc = mc_setup
    stats = EstimationStats.from_allocation(alloc, profile)
    rng = np.random.default_rng(90)
    n = 10_000
    fh2 = np.zeros(config.n_unicast)
    gh2 = np.zeros(config.n_groups)
    ghk2 = np.zeros(sum(config.group_sizes))
    prop_exact = True
    for _ in range(n):
        real = draw_channels(profile, config, rng)
        est = estimate_channels(real, alloc, profile, rng)
        fh2 += np.mean(np.abs(est.f_hat) ** 2, axis=1)
        gh2 += np.mean(np.abs(est.g_hat_composite) ** 2, axis=1)
        ghk2 += np.concatenate(
            [np.mean(np.abs(g) ** 2, axis=1) for g in est.g_hat_user]
        )
        c = pilot_scaling(alloc.tau, alloc.q_up[0], profile.eta[0])
        resid = est.g_hat_user[0] - c[:, None] * est.g_hat_composite[0]
        prop_exact = prop_exact and np.max(np.abs(resid)) <= 1e-12 * np.max(
            np.abs(est.g_hat_user[0])
        )
    n_samp = n * config.n_antennas
    ok = prop_exact

    def within_3se(emp, expected):
        return abs(emp - expected) < 3 * expected / math.sqrt(n_samp)

    for m in range(config.n_unicast):
        ok = ok and within_3se(fh2[m] / n, stats.vartheta[m])
    for j in range(config.n_groups):
        ok = ok and within_3se(gh2[j] / n, stats.gamma[j])
    flat_xi = [x for g in stats.xi for x in g]
    for i, xi in enumerate(flat_xi):
        ok = ok and within_3se(ghk2[i] / n, xi)
    # analytic side of the proportionality identity
    c = pilot_scaling(alloc.tau, alloc.q_up[0], profile.eta[0])
    ok = ok and np.allclose(stats.xi[0], c**2 * stats.gamma[0], rtol=1e-12)
    report(9, ok, "1e4 draws: estimate variances within 3 SE of "
                  "vartheta/gamma/xi; proportionality exact to 1e-12")


def test_criterion_10_byte_identical_outputs(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(SMALL_CONFIG))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["pareto", "--config", str(cfg_file),
                     "--out", str(out)]) == 0
        outs.append((out / "pareto.csv").read_bytes()
                    + (out / "pareto_plotdata.txt").read_bytes())
    csv_identical = outs[0] == outs[1]

    reports = []
    for workers, name in ((1, "w1"), (4, "w4")):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["montecarlo"]["n_workers"] = workers
        path = tmp_path / f"cfg_{name}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / name
        assert main(["validate", "--config", str(path),
                     "--out", str(out)]) == 0
        reports.append((out / "montecarlo_report.json").read_bytes())
    mc_identical = reports[0] == reports[1]
    ok = csv_identical and mc_identical
    report(10, ok, f"CSV/plotdata byte-identical: {csv_identical}, "
                   f"Monte Carlo report identical across 1 vs 4 workers: "
                   f"{mc_identical}")
