import dataclasses
import math
import multiprocessing
import os
import threading
import time
import tracemalloc
import warnings
import weakref
from statistics import NormalDist

import numpy as np
import pytest

from mmjoint import montecarlo
from mmjoint.cli import load_config_file
from mmjoint.closed_form import (EstimationStats, PowerAllocation, evaluate,
                                 pilot_scaling)
from mmjoint.montecarlo import (
    draw_channels,
    empirical_sinr,
    estimate_channels,
    mrt_precoders,
)
from mmjoint.optimizers import solve_mmf, solve_wsse
from mmjoint.scenario import LargeScaleProfile

from conftest import make_system, use_cpus


@pytest.fixture
def config():
    return make_system(n_unicast=2, n_groups=1, group_sizes=(2,),
                       n_antennas=64, total_dl_power=5.0, energy=10.0)


@pytest.fixture
def profile():
    return LargeScaleProfile(beta=[0.8, 1.5], eta=[[1.0, 0.6]])


@pytest.fixture
def alloc():
    # tau = U + G = 3; pilot energies inside the budget of 10
    return PowerAllocation(p_dl=[1.2, 0.8], q_dl=[3.0], p_up=[2.0, 2.0],
                           q_up=[[1.5, 2.5]], tau=3)


@pytest.fixture
def three_groups():
    """Unequal groups (1, 2, 3), one zero pilot power, one zero DL power."""
    config = make_system(n_unicast=2, n_groups=3, group_sizes=(1, 2, 3),
                         n_antennas=16, total_dl_power=5.0, energy=10.0)
    profile = LargeScaleProfile(beta=[0.8, 1.5],
                                eta=[[1.0], [0.6, 2.0], [0.3, 1.1, 0.7]])
    # tau = U + G = 5; pilot energies inside the budget of 10
    alloc = PowerAllocation(p_dl=[1.2, 0.0], q_dl=[1.0, 1.5, 1.3],
                            p_up=[2.0, 1.0],
                            q_up=[[1.5], [0.5, 2.0], [1.2, 0.0, 0.8]], tau=5)
    return config, profile, alloc


def _loop_reference(config, profile, alloc, stats, rng):
    """Channels, estimates and precoders with one loop per group and user,
    reading the documented draw layout from ``rng``."""
    N, U, tau = config.n_antennas, config.n_unicast, alloc.tau

    def crandn(rows):
        x = rng.standard_normal((rows, 2 * N))
        return (x[:, 0::2] + 1j * x[:, 1::2]) / math.sqrt(2.0)

    channels = crandn(U + config.n_multicast)
    f = channels[:U] * np.sqrt(profile.beta)[:, None]
    g, row = [], U
    for eta in profile.eta:
        g.append(channels[row:row + len(eta)] * np.sqrt(eta)[:, None])
        row += len(eta)

    noise = crandn(U + config.n_groups)
    f_hat = np.zeros_like(f)
    for m, (p, beta) in enumerate(zip(alloc.p_up, profile.beta)):
        scale = math.sqrt(tau * p) * beta / (1.0 + tau * p * beta)
        f_hat[m] = scale * (math.sqrt(tau * p) * f[m] + noise[m])
    composite, members = [], []
    for j, (g_grp, q, eta) in enumerate(zip(g, alloc.q_up, profile.eta)):
        s = tau * float(np.dot(q, eta))
        observation = np.sqrt(tau * np.asarray(q)) @ g_grp + noise[U + j]
        composite.append(s / (1.0 + s) * observation)
        members.append(pilot_scaling(tau, q, eta)[:, None] * composite[j])

    V = np.zeros((N, U), dtype=complex)
    for m, (p, var) in enumerate(zip(alloc.p_dl, stats.vartheta)):
        if p > 0.0 and var > 0.0:
            V[:, m] = math.sqrt(p / (N * var)) * f_hat[m]
    W = np.zeros((N, config.n_groups), dtype=complex)
    for j, (q, var) in enumerate(zip(alloc.q_dl, stats.gamma)):
        if q > 0.0 and var > 0.0:
            W[:, j] = math.sqrt(q / (N * var)) * composite[j]
    return f, g, f_hat, np.array(composite), members, V, W


class TestLoopReference:
    def test_vectorised_path_equals_per_group_loops(self, three_groups):
        config, profile, alloc = three_groups
        stats = EstimationStats.from_allocation(alloc, profile)
        for i in range(3):
            def rng():
                return np.random.default_rng(
                    np.random.SeedSequence(31, spawn_key=(i,)))

            f, g, f_hat, composite, members, V, W = _loop_reference(
                config, profile, alloc, stats, rng())
            draws = rng()
            real = draw_channels(profile, config, draws)
            est = estimate_channels(real, alloc, profile, draws)
            V_vec, W_vec = mrt_precoders(est, alloc, stats)

            def same(actual, desired):
                np.testing.assert_allclose(actual, desired, rtol=1e-12,
                                           atol=0.0)

            same(real.f, f)
            assert len(real.g) == len(g)
            for actual, desired in zip(real.g, g):
                same(actual, desired)
            same(est.f_hat, f_hat)
            same(est.g_hat_composite, composite)
            for actual, desired in zip(est.g_hat_user, members):
                same(actual, desired)
            same(V_vec, V)
            same(W_vec, W)
            # the zero pilot power gives that member a zero estimate, and
            # the zero downlink power a zero precoder column
            assert np.all(est.g_hat_user[2][1] == 0.0)
            assert np.any(est.g_hat_user[2][0] != 0.0)
            assert np.all(V_vec[:, 1] == 0.0)


class TestDrawChannels:
    def test_reproducible_from_seed_and_index(self, config, profile):
        def draw(i):
            rng = np.random.default_rng(
                np.random.SeedSequence(99, spawn_key=(i,))
            )
            return draw_channels(profile, config, rng)

        a, b = draw(5), draw(5)
        assert np.array_equal(a.f, b.f)
        assert all(np.array_equal(x, y) for x, y in zip(a.g, b.g))
        c = draw(6)
        assert not np.array_equal(a.f, c.f)

    def test_variance_and_mean(self, config, profile):
        rng = np.random.default_rng(0)
        n = 2000
        f = np.stack([draw_channels(profile, config, rng).f for _ in range(n)])
        per_antenna = np.mean(np.abs(f) ** 2, axis=(0, 2))
        assert np.allclose(per_antenna, profile.beta, rtol=0.05)
        n_samp = n * config.n_antennas
        for m, beta in enumerate(profile.beta):
            se = math.sqrt(beta / 2.0 / n_samp)  # per real component
            assert abs(np.mean(f[:, m, :].real)) < 3 * se
            assert abs(np.mean(f[:, m, :].imag)) < 3 * se


class TestEstimateChannels:
    def test_zero_pilot_gives_zero_estimates(self, config, profile):
        rng = np.random.default_rng(1)
        real = draw_channels(profile, config, rng)
        alloc = PowerAllocation(p_dl=[0.0, 0.0], q_dl=[0.0],
                                p_up=[0.0, 0.0], q_up=[[0.0, 0.0]], tau=3)
        est = estimate_channels(real, alloc, profile, rng)
        assert np.all(est.f_hat == 0.0)
        assert np.all(est.g_hat_composite == 0.0)
        assert np.all(est.g_hat_user[0] == 0.0)

    def test_estimate_variances_match_closed_form(self, config, profile, alloc):
        rng = np.random.default_rng(2)
        stats = EstimationStats.from_allocation(alloc, profile)
        n = 2000
        fh, gh, ghk = [], [], []
        for _ in range(n):
            real = draw_channels(profile, config, rng)
            est = estimate_channels(real, alloc, profile, rng)
            fh.append(est.f_hat)
            gh.append(est.g_hat_composite)
            ghk.append(est.g_hat_user[0])
        fh, gh, ghk = np.stack(fh), np.stack(gh), np.stack(ghk)
        assert np.allclose(np.mean(np.abs(fh) ** 2, axis=(0, 2)),
                           stats.vartheta, rtol=0.05)
        assert np.mean(np.abs(gh[:, 0]) ** 2) == pytest.approx(
            stats.gamma[0], rel=0.05
        )
        assert np.allclose(np.mean(np.abs(ghk) ** 2, axis=(0, 2)),
                           stats.xi[0], rtol=0.05)

    def test_mmse_orthogonality(self, config, profile, alloc):
        # estimate and estimation error must be uncorrelated
        rng = np.random.default_rng(3)
        n = 2000
        cross = []
        for _ in range(n):
            real = draw_channels(profile, config, rng)
            est = estimate_channels(real, alloc, profile, rng)
            err = real.f - est.f_hat
            cross.append(np.mean(est.f_hat.conj() * err, axis=1))
        cross = np.stack(cross)
        se = np.std(cross.real, axis=0) / math.sqrt(n)
        assert np.all(np.abs(np.mean(cross.real, axis=0)) < 3 * se)

    def test_error_variance_decomposition(self, config, profile, alloc):
        # var(f) = var(f_hat) + var(f - f_hat)
        rng = np.random.default_rng(4)
        stats = EstimationStats.from_allocation(alloc, profile)
        n = 2000
        err2 = []
        for _ in range(n):
            real = draw_channels(profile, config, rng)
            est = estimate_channels(real, alloc, profile, rng)
            err2.append(np.mean(np.abs(real.f - est.f_hat) ** 2, axis=1))
        err2 = np.stack(err2)
        expected = np.asarray(profile.beta) - np.asarray(stats.vartheta)
        se = np.std(err2, axis=0) / math.sqrt(n)
        assert np.all(np.abs(np.mean(err2, axis=0) - expected) < 3 * se)

    def test_user_estimates_proportional_to_composite(self, config, profile,
                                                      alloc):
        rng = np.random.default_rng(5)
        real = draw_channels(profile, config, rng)
        est = estimate_channels(real, alloc, profile, rng)
        # exact scalar relation between per-user and composite estimates
        ratio = est.g_hat_user[0] / est.g_hat_composite[0][None, :]
        assert np.allclose(ratio, ratio[:, :1], rtol=1e-12, atol=1e-15)


class TestMrtPrecoders:
    def test_normalization(self, config, profile, alloc):
        rng = np.random.default_rng(6)
        stats = EstimationStats.from_allocation(alloc, profile)
        n = 2000
        v2 = np.zeros(2)
        w2 = 0.0
        for _ in range(n):
            real = draw_channels(profile, config, rng)
            est = estimate_channels(real, alloc, profile, rng)
            V, W = mrt_precoders(est, alloc, stats)
            v2 += np.sum(np.abs(V) ** 2, axis=0)
            w2 += np.sum(np.abs(W[:, 0]) ** 2)
        assert np.allclose(v2 / n, alloc.p_dl, rtol=0.02)
        assert w2 / n == pytest.approx(alloc.q_dl[0], rel=0.02)

    def test_zero_power_gives_zero_vector(self, config, profile):
        alloc = PowerAllocation(p_dl=[0.0, 1.0], q_dl=[0.0],
                                p_up=[2.0, 2.0], q_up=[[1.5, 2.5]], tau=3)
        rng = np.random.default_rng(7)
        stats = EstimationStats.from_allocation(alloc, profile)
        real = draw_channels(profile, config, rng)
        est = estimate_channels(real, alloc, profile, rng)
        V, W = mrt_precoders(est, alloc, stats)
        assert np.all(V[:, 0] == 0.0)
        assert np.all(W == 0.0)
        assert np.any(V[:, 1] != 0.0)


class TestEmpiricalSinr:
    def test_requires_enough_realizations(self, config, profile, alloc):
        with pytest.raises(ValueError):
            empirical_sinr(config, profile, alloc, 50, seed=0)

    def test_matches_analytic_sinr(self, config, profile, alloc):
        report = empirical_sinr(config, profile, alloc, 4000, seed=17)
        for user in report.unicast + report.multicast:
            assert user.sinr_relative_error < 0.05

    def test_desired_coefficient(self, config, profile, alloc):
        stats = EstimationStats.from_allocation(alloc, profile)
        report = empirical_sinr(config, profile, alloc, 4000, seed=18)
        for m, user in enumerate(report.unicast):
            expected = config.n_antennas * alloc.p_dl[m] * stats.vartheta[m]
            assert abs(user.desired_power - expected) < 3 * user.desired_power_se

    def test_decomposition_terms(self, config, profile, alloc):
        report = empirical_sinr(config, profile, alloc, 4000, seed=19)
        for user in report.unicast + report.multicast:
            own = user.self_interference + user.same_service_interference
            tol = 3 * math.sqrt(user.self_interference_se**2
                                + user.same_service_interference_se**2)
            assert abs(own - user.same_service_analytic) < tol
            assert (
                abs(user.cross_service_interference
                    - user.cross_service_analytic)
                < 3 * user.cross_service_interference_se
            )

    def test_zero_downlink_power_zero_sinr(self, config, profile):
        alloc = PowerAllocation(p_dl=[0.0, 0.0], q_dl=[0.0],
                                p_up=[2.0, 2.0], q_up=[[1.5, 2.5]], tau=3)
        report = empirical_sinr(config, profile, alloc, 200, seed=20)
        for user in report.unicast + report.multicast:
            assert user.sinr_empirical == 0.0

    def test_parallel_runs_are_bit_identical(self, config, profile, alloc,
                                             three_groups, monkeypatch):
        for scenario in ((config, profile, alloc), three_groups):
            reports = []
            for cpus in (1, 2, 4):
                use_cpus(monkeypatch, cpus)
                reports.append(empirical_sinr(*scenario, 1500,
                                              seed=21).to_dict())
            assert reports[0] == reports[1] == reports[2]

    def test_report_dict_is_asdict(self, config, profile, alloc,
                                   three_groups):
        # the report keeps columns; each row of to_dict() is asdict of the
        # UserSinrBreakdown built from them
        for scenario in ((config, profile, alloc), three_groups):
            report = empirical_sinr(*scenario, 200, seed=26)
            d = report.to_dict()
            assert d == {"n_realizations": 200, "seed": 26,
                         "unicast": list(map(dataclasses.asdict,
                                             report.unicast)),
                         "multicast": list(map(dataclasses.asdict,
                                               report.multicast))}
            assert d["multicast"][0]["index"] == (0, 0)
            assert type(d["unicast"][1]["index"]) is tuple

    def test_no_worker_outlives_the_call(self, config, profile, alloc,
                                         monkeypatch):
        use_cpus(monkeypatch, 4)
        threads_before = threading.active_count()
        empirical_sinr(config, profile, alloc, 1500, seed=22)
        assert threading.active_count() == threads_before
        assert multiprocessing.active_children() == []

    def test_peak_memory_does_not_grow_with_chunk_count(self, monkeypatch):
        # 208 users and 12 precoders: a chunk returns 4 x 12 sums, 512 bytes,
        # so the peak, about 220 KB of per-user arrays, cannot show them
        # held; the chunk results alive at once are counted instead
        config = make_system(n_unicast=8, n_groups=4, group_sizes=(50,) * 4,
                             n_antennas=8)
        profile = LargeScaleProfile(beta=[1.0] * 8, eta=[[1.0] * 50] * 4)
        alloc = PowerAllocation(p_dl=[0.25] * 8, q_dl=[0.5] * 4,
                                p_up=[0.5] * 8, q_up=[[0.5] * 50] * 4, tau=12)
        monkeypatch.setattr(montecarlo, "_CHUNK", 100)
        run_chunk, results, most_alive = montecarlo._run_chunk, [], [0]

        def counted(*args):
            sums = run_chunk(*args)
            results.append(weakref.ref(sums))
            alive = sum(ref() is not None for ref in results)
            most_alive[0] = max(most_alive[0], alive)
            return sums

        monkeypatch.setattr(montecarlo, "_run_chunk", counted)
        use_cpus(monkeypatch, 1)

        def peak(n_chunks):
            tracemalloc.start()
            try:
                empirical_sinr(config, profile, alloc, 100 * n_chunks,
                               seed=23)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call allocations are not counted
        few = peak(2)
        most_alive[0] = 0
        many = peak(40)
        assert many < 1.5 * few
        # the window of chunks in flight, the one being folded and the one
        # just returned; holding every chunk's sums until the fold keeps 40
        assert most_alive[0] <= montecarlo._WINDOW_PER_WORKER + 2

    def test_chunks_in_flight_are_bounded(self, config, profile, alloc,
                                          monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", 5)  # 100 realizations: 20
        run_chunk = montecarlo._run_chunk
        window = 2 * montecarlo._WINDOW_PER_WORKER
        lock = threading.Lock()
        started = []
        window_started = threading.Event()
        started_before_first_returned = []

        def first_chunk_waits(*args):
            first = args[-1][0]
            with lock:
                started.append(first)
                if len(started) == window:
                    window_started.set()
            if first == 0:
                # the first chunk returns once a window of chunks has
                # started, and a grace period later: if every chunk were
                # submitted at once, the other worker would start the 19
                # others meanwhile
                assert window_started.wait(timeout=10.0)
                time.sleep(0.1)
                with lock:
                    started_before_first_returned.append(len(started))
            return run_chunk(*args)

        monkeypatch.setattr(montecarlo, "_run_chunk", first_chunk_waits)
        use_cpus(monkeypatch, 2)
        report = empirical_sinr(config, profile, alloc, 100, seed=25)
        assert started_before_first_returned[0] <= window
        assert sorted(started) == list(range(0, 100, 5))
        monkeypatch.setattr(montecarlo, "_run_chunk", run_chunk)
        use_cpus(monkeypatch, 1)
        one = empirical_sinr(config, profile, alloc, 100, seed=25)
        assert report.to_dict() == one.to_dict()

    @pytest.mark.parametrize("cpus", [None, 3], ids=["affinity", "three"])
    def test_one_pool_of_usable_cpus_workers(self, config, profile, alloc,
                                             monkeypatch, cpus):
        # 20 chunks, more than any window, so an unbounded pool would start
        # a thread for each chunk submitted while none is idle
        if cpus is not None:
            use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(montecarlo, "_CHUNK", 5)
        pools = []

        class Recording(montecarlo.ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                self.asked = max_workers
                pools.append(self)

            def shutdown(self, *args, **kwargs):
                self.started = len(self._threads)
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        empirical_sinr(config, profile, alloc, 100, seed=24)
        [pool] = pools
        assert pool.asked == montecarlo.usable_cpus()
        assert 1 <= pool.started <= montecarlo.usable_cpus()

    def test_usable_cpus_are_the_affinity_set(self, monkeypatch):
        assert montecarlo.usable_cpus() == len(os.sched_getaffinity(0))
        # without an affinity call the CPU count is used
        monkeypatch.delattr(os, "sched_getaffinity")
        assert montecarlo.usable_cpus() == os.cpu_count()

    def test_chunk_ranges_are_made_on_demand(self, config, profile, alloc,
                                             monkeypatch):
        # one realization per chunk and no work in a chunk: a list of every
        # chunk's range, made before the first chunk runs, would grow the
        # peak by about 120 bytes per chunk, 600 KB at 5000 chunks
        monkeypatch.setattr(montecarlo, "_CHUNK", 1)
        monkeypatch.setattr(
            montecarlo, "_run_chunk",
            lambda cond, seed, indices: np.zeros((4, config.n_pilots)))
        use_cpus(monkeypatch, 1)

        def peak(n_chunks):
            tracemalloc.start()
            try:
                empirical_sinr(config, profile, alloc, n_chunks, seed=27)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # first-call allocations are not counted
        few = peak(500)
        assert peak(5000) < few + 100_000


class TestSinrRelativeError:
    def test_zero_analytic_sinr_gives_the_empirical_sinr(self, config,
                                                         profile):
        alloc = PowerAllocation(p_dl=[0.0, 0.0], q_dl=[0.0],
                                p_up=[2.0, 2.0], q_up=[[1.5, 2.5]], tau=3)
        user = empirical_sinr(config, profile, alloc, 100, seed=26).unicast[0]
        assert user.sinr_analytic == 0.0
        assert user.sinr_relative_error == 0.0
        user = dataclasses.replace(user, sinr_empirical=0.25)
        assert user.sinr_relative_error == 0.25


class TestSubstream:
    def test_each_chunk_draws_from_the_sfc64_substream_of_its_start(
            self, config, profile, alloc, monkeypatch):
        # one generator per chunk: SFC64 seeded from
        # SeedSequence(seed, spawn_key=(start,)), start the chunk's first
        # realization
        seed, n = 29, montecarlo.MIN_REALIZATIONS
        monkeypatch.setattr(montecarlo, "_CHUNK", 40)
        calls, substream = [], montecarlo._substream

        def recording(seed, i):
            rng = substream(seed, i)
            calls.append((i, rng.bit_generator.state))
            return rng

        monkeypatch.setattr(montecarlo, "_substream", recording)
        use_cpus(monkeypatch, 1)  # the chunks are called in order
        empirical_sinr(config, profile, alloc, n, seed=seed)
        assert [i for i, _ in calls] == [0, 40, 80]

        for i, state in calls:
            fresh = np.random.SFC64(
                np.random.SeedSequence(seed, spawn_key=(i,))).state
            assert state["bit_generator"] == fresh["bit_generator"]
            assert state["state"]["state"].tolist() \
                == fresh["state"]["state"].tolist()
            assert (state["has_uint32"], state["uinteger"]) \
                == (fresh["has_uint32"], fresh["uinteger"])

    def test_reports_are_bit_identical_across_workers(self, three_groups,
                                                      monkeypatch):
        # three chunks, the last one partial
        monkeypatch.setattr(montecarlo, "_CHUNK", 40)
        reports = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            reports.append(empirical_sinr(*three_groups, 100,
                                          seed=30).to_dict())
        assert reports[0] == reports[1] == reports[2]


def _draw_reference(config, profile, alloc, stats, rng):
    """One realization, with one loop per pilot and user, reading the
    documented draw layout from ``rng``: per pilot, e = Gamma_c - N; per
    user, the mean of the own coefficient given the pilot observations and,
    per (user, pilot), the mean received power given them."""
    N, U, tau = config.n_antennas, config.n_unicast, alloc.tau
    snr, gain = [], []
    for p, beta, p_dl, var in zip(alloc.p_up, profile.beta, alloc.p_dl,
                                  stats.vartheta):
        snr.append(tau * p * beta)
        mrt = math.sqrt(p_dl / (N * var)) if p_dl > 0 and var > 0 else 0.0
        gain.append(mrt * math.sqrt(tau * p) * beta / (1.0 + snr[-1]))
    users = [(m, tau * p, beta)
             for m, (p, beta) in enumerate(zip(alloc.p_up, profile.beta))]
    for j, (q, eta, q_dl, var) in enumerate(zip(alloc.q_up, profile.eta,
                                               alloc.q_dl, stats.gamma)):
        snr.append(tau * float(np.dot(q, eta)))
        mrt = math.sqrt(q_dl / (N * var)) if q_dl > 0 and var > 0 else 0.0
        gain.append(mrt * snr[-1] / (1.0 + snr[-1]))
        users += [(U + j, tau * q_k, eta_k) for q_k, eta_k in zip(q, eta)]

    gammas = rng.standard_gamma(N, len(snr))
    norm2 = [(1.0 + s) * x for s, x in zip(snr, gammas)]
    mean_c = np.zeros(len(users))
    power = np.zeros((len(users), len(snr)))
    for k, (own, pilot, fade) in enumerate(users):
        # c_k = G_c (a_k ||y_c||^2 + ||y_c|| sigma_k z_k), z_k ~ CN(0, 1)
        a = math.sqrt(pilot) * fade / (1.0 + snr[own])
        sigma = math.sqrt(max(0.0, fade - a * a * (1.0 + snr[own])))
        mean_c[k] = gain[own] * a * norm2[own]
        for c in range(len(snr)):
            power[k, c] = mean_c[k] ** 2 + (gain[own] * sigma) ** 2 \
                * norm2[own] if c == own else fade * gain[c] ** 2 * norm2[c]
    return gammas - N, mean_c, power


def _chunk_means(cond, sums, n):
    """What a chunk's sums of n realizations stand for: the mean own
    coefficient mu m1, and the per-(user, pilot) mean powers,
    mu^2 (mu2 + m1^2) + spread^2 m1 on the user's own pilot and
    entry_power m1 on the others, with m1 the mean and mu2 the central
    second moment of ||y_c||^2.  Each comes with the variance of one
    realization's term."""
    scale = cond.one_plus_snr
    d, r2, r3, r4 = sums / n
    # central moments of e = Gamma_c - N
    c2 = r2 - d * d
    c3 = r3 - 3.0 * d * r2 + 2.0 * d**3
    c4 = r4 - 4.0 * d * r3 + 6.0 * d * d * r2 - 3.0 * d**4
    m1 = scale * (cond.n_antennas + d)
    users, own = np.arange(len(cond.own_col)), cond.own_col
    mu, spread = cond.own_mean, cond.own_spread
    power = cond.entry_power * m1
    power_var = cond.entry_power**2 * scale**2 * c2
    power[users, own] = mu**2 * (scale[own]**2 * c2[own] + m1[own]**2) \
        + spread**2 * m1[own]
    # mu^2 X^2 + spread^2 X = const + B D + C D^2 with D = e - d
    B = (2.0 * mu**2 * m1[own] + spread**2) * scale[own]
    C = (mu * scale[own])**2
    power_var[users, own] = B**2 * c2[own] + 2.0 * B * C * c3[own] \
        + C**2 * (c4[own] - c2[own]**2)
    return (mu * m1[own], (mu * scale[own])**2 * c2[own], power,
            power_var)


def _full_channel_chunk(scenario, seed, n):
    """From full channel draws, estimates and precoders: the sums of the own
    coefficients c and of (Re c)^2, and the per-(user, pilot) sums of the
    received power and its square."""
    config, profile, alloc = scenario
    stats = EstimationStats.from_allocation(alloc, profile)
    own_col = np.concatenate([np.arange(config.n_unicast),
                              config.n_unicast + config.layout.member_group])
    users = np.arange(len(own_col))
    sum_c = np.zeros(len(users), dtype=complex)
    sum_re2_c = np.zeros(len(users))
    sum_power = np.zeros((len(users), config.n_pilots))
    sum_power_sq = np.zeros_like(sum_power)
    rng = np.random.default_rng(seed)
    for _ in range(n):
        real = draw_channels(profile, config, rng)
        est = estimate_channels(real, alloc, profile, rng)
        V, W = mrt_precoders(est, alloc, stats)
        rx = real.h @ np.hstack([V, W]).conj()
        c = rx[users, own_col].conj()
        sum_c += c
        sum_re2_c += c.real**2
        power = np.abs(rx) ** 2
        sum_power += power
        sum_power_sq += power**2
    return sum_c, sum_re2_c, sum_power, sum_power_sq


class TestSufficientDraw:
    def test_realization_follows_the_documented_layout(self, three_groups):
        config, profile, alloc = three_groups
        stats = EstimationStats.from_allocation(alloc, profile)
        cond = montecarlo._Conditioning.of(config, profile, alloc, stats)
        seed = 37

        def same(actual, desired):
            np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=0)

        for i in range(3):
            e, mean_c, power = _draw_reference(
                config, profile, alloc, stats,
                np.random.Generator(np.random.SFC64(
                    np.random.SeedSequence(seed, spawn_key=(i,)))))
            sums = montecarlo._run_chunk(cond, seed, range(i, i + 1))
            same(sums, [e, e**2, e**3, e**4])
            # E[c | y] on the own pilot; E[|c|^2 | y] on it and the mean
            # power given y off it
            chunk_c, _, chunk_power, _ = _chunk_means(cond, sums, 1)
            same(chunk_c, mean_c)
            same(chunk_power, power)
            # the zero downlink power gives a zero column, the zero pilot
            # power a coefficient of mean 0 but of nonzero power
            assert np.all(chunk_power[:, 1] == 0.0)
            assert chunk_c[2 + 4] == 0.0 and chunk_power[2 + 4, 2 + 2] > 0.0

    def test_agrees_with_the_full_channel_simulator(self, three_groups):
        # two-sample z of every per-(user, pilot) mean power and of the real
        # and imaginary parts of every mean own coefficient, Bonferroni over
        # the nonzero terms at family-wise level 1e-3
        n = 5000
        config, profile, alloc = three_groups
        stats = EstimationStats.from_allocation(alloc, profile)
        cond = montecarlo._Conditioning.of(config, profile, alloc, stats)
        sums = montecarlo._run_chunk(cond, 41, range(n))
        mean_c, var_c, power, var_power = _chunk_means(cond, sums, n)
        m1 = np.concatenate([power.ravel(), mean_c, np.zeros_like(mean_c)])
        v1 = np.concatenate([var_power.ravel(), var_c,
                             np.zeros_like(var_c)]) / n

        sum_c, sum_re2_c, sum_power, sum_power_sq = _full_channel_chunk(
            three_groups, 43, n)
        users = np.arange(len(cond.own_col))
        re2 = sum_re2_c / n
        im2 = sum_power[users, cond.own_col] / n - re2
        m2 = np.concatenate([(sum_power / n).ravel(), sum_c.real / n,
                             sum_c.imag / n])
        second = np.concatenate([(sum_power_sq / n).ravel(), re2, im2])
        v2 = np.maximum(0.0, second - m2**2) / n

        spread = np.sqrt(v1 + v2)
        zero = spread == 0.0
        assert np.all(m1[zero] == 0.0) and np.all(m2[zero] == 0.0)
        # the zero-power column (8 users) and its own user's coefficient
        assert np.count_nonzero(zero) == 8 + 2
        z_bound = NormalDist().inv_cdf(1 - 1e-3 / (2 * np.sum(~zero)))
        z = np.abs(m1 - m2)[~zero] / spread[~zero]
        assert np.max(z) <= z_bound, np.argmax(z)

    def test_chunk_reads_its_realizations_from_one_stream(self,
                                                          three_groups):
        # a full block and a partial one, read in order from the generator
        # of the chunk's start
        config, profile, alloc = three_groups
        stats = EstimationStats.from_allocation(alloc, profile)
        cond = montecarlo._Conditioning.of(config, profile, alloc, stats)
        indices = range(3, 3 + montecarlo._BATCH + 17)
        sums = montecarlo._run_chunk(cond, 47, indices)
        rng = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(47, spawn_key=(3,))))
        powers = np.array([
            _draw_reference(config, profile, alloc, stats, rng)[0]
            for _ in indices])[None] ** np.arange(1, 5)[:, None, None]
        assert sums.shape == (4, config.n_pilots)
        # the sums of e^k cancel: bound the rounding by the sums of |e|^k
        for k, power in enumerate(powers, 1):
            np.testing.assert_allclose(
                sums[k - 1], power.sum(axis=0), rtol=0,
                atol=1e-12 * np.abs(power).sum(axis=0).max(),
                err_msg=f"e^{k}")

    def test_report_reads_the_moments_of_the_drawn_norms(self,
                                                         three_groups):
        # one chunk: its own terms are _own_terms of the sample mean and
        # central moments of the drawn ||y_c||^2, formed here directly
        n, seed = montecarlo.MIN_REALIZATIONS, 48
        config, profile, alloc = three_groups
        stats = EstimationStats.from_allocation(alloc, profile)
        cond = montecarlo._Conditioning.of(config, profile, alloc, stats)
        report = empirical_sinr(*three_groups, n, seed=seed)
        rng = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed, spawn_key=(0,))))
        x = cond.one_plus_snr * rng.standard_gamma(
            config.n_antennas, (n, config.n_pilots))
        m1 = x.mean(axis=0)
        moments = [m1] + [np.mean((x - m1)**k, axis=0) for k in (2, 3, 4)]
        expected = montecarlo._own_terms(
            cond.own_mean, cond.own_spread,
            *(m[cond.own_col] for m in moments), n)
        users = report.unicast + report.multicast
        for name, values in zip(("desired_power", "desired_power_se",
                                 "self_interference", "self_interference_se"),
                                expected):
            np.testing.assert_allclose([getattr(u, name) for u in users],
                                       values, rtol=1e-9, err_msg=name)

    def test_chunk_working_set_does_not_grow_with_its_length(self):
        # 208 users on 12 pilots
        config = make_system(n_unicast=8, n_groups=4,
                             group_sizes=(50,) * 4, n_antennas=8)
        profile = LargeScaleProfile(beta=[1.0] * 8, eta=[[1.0] * 50] * 4)
        alloc = PowerAllocation(p_dl=[0.25] * 8, q_dl=[0.5] * 4,
                                p_up=[0.5] * 8, q_up=[[0.5] * 50] * 4,
                                tau=12)
        stats = EstimationStats.from_allocation(alloc, profile)
        cond = montecarlo._Conditioning.of(config, profile, alloc, stats)

        def peak(n_realizations):
            tracemalloc.start()
            try:
                montecarlo._run_chunk(cond, 45, range(n_realizations))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)  # first-call allocations are not counted
        # the two (64, 12) buffers take 12 KB; drawing 512 realizations at
        # once would take two (512, 12) arrays, 98 KB
        assert peak(512) < 1.25 * peak(64)

    def test_partial_batch_is_bit_identical_across_workers(self,
                                                           three_groups,
                                                           monkeypatch):
        # the second chunk of 1001 realizations ends in a partial batch
        n = 1001
        assert (n % montecarlo._CHUNK) % montecarlo._BATCH != 0
        reports = []
        for cpus in (1, 2, 4):
            use_cpus(monkeypatch, cpus)
            reports.append(empirical_sinr(*three_groups, n,
                                          seed=46).to_dict())
        assert reports[0] == reports[1] == reports[2]

    def test_high_pilot_snr_clamps_the_conditional_variance(self):
        # a single-member group with s = tau q eta = 7e16: fading - a^2 (1+s)
        # rounds below 0, and its square root would raise
        config = make_system(n_unicast=1, n_groups=1, group_sizes=(1,),
                             n_antennas=32, total_dl_power=5.0, energy=1e17)
        profile = LargeScaleProfile(beta=[0.8], eta=[[0.7]])
        alloc = PowerAllocation(p_dl=[2.0], q_dl=[3.0], p_up=[1.0],
                                q_up=[[5e16]], tau=2)
        s = 2 * 5e16 * 0.7
        a = math.sqrt(2 * 5e16) * 0.7 / (1.0 + s)
        assert 0.7 - a * a * (1.0 + s) < 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = empirical_sinr(config, profile, alloc, 2000, seed=44)
        member = report.multicast[0]
        assert math.isfinite(member.self_interference)
        assert abs(member.desired_power - member.desired_power_analytic) \
            < 3 * member.desired_power_se


SMALL_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "small.json")


def _small_scenario(n_antennas=None):
    """configs/small.json at its Monte Carlo split, with both optimal
    allocations."""
    cfg = load_config_file(SMALL_CONFIG)
    system = cfg.system(n_antennas)
    p_un = cfg.montecarlo["unicast_power_fraction"] * cfg.total_dl_power
    mmf = solve_mmf(system, cfg.profile, p_un)
    wsse = solve_wsse(system, cfg.profile, cfg.total_dl_power - p_un)
    alloc = PowerAllocation(p_dl=wsse.p_dl, q_dl=mmf.q_dl, p_up=wsse.p_up,
                            q_up=mmf.q_up, tau=system.n_pilots)
    return system, cfg.profile, alloc


@pytest.fixture
def small_config():
    return _small_scenario()


class TestAnalyticFieldsMatchClosedForm:
    """The report's analytic fields are the closed forms, bit for bit."""

    @pytest.mark.parametrize("scenario", ["three_groups", "small_config"])
    def test_sinr_and_desired_power(self, scenario, request):
        config, profile, alloc = request.getfixturevalue(scenario)
        report = empirical_sinr(config, profile, alloc,
                                montecarlo.MIN_REALIZATIONS, seed=5)
        closed = evaluate(config, alloc, profile)
        stats = EstimationStats.from_allocation(alloc, profile)
        N = config.n_antennas
        assert [u.sinr_analytic for u in report.unicast] == \
            closed.sinr_unicast
        assert [u.desired_power_analytic for u in report.unicast] == [
            N * p * var for p, var in zip(alloc.p_dl, stats.vartheta)]
        assert [u.sinr_analytic for u in report.multicast] == \
            closed.sinr_multicast.flat.tolist()
        assert [u.desired_power_analytic for u in report.multicast] == [
            N * q * var for q, xi in zip(alloc.q_dl, stats.xi) for var in xi]


class TestMultiSeedAgreement:
    @pytest.mark.parametrize("seed", [1, 7, 42, 2024])
    def test_terms_agree_with_analytic_at_bonferroni_z(self, seed):
        # the check perfbench applies to every Monte Carlo report: desired,
        # own-service and cross-service terms within z standard errors,
        # Bonferroni over three terms per user at family-wise level 1e-3
        cfg = load_config_file(SMALL_CONFIG)
        system = cfg.system()
        p_un = cfg.montecarlo["unicast_power_fraction"] * cfg.total_dl_power
        mmf = solve_mmf(system, cfg.profile, p_un)
        wsse = solve_wsse(system, cfg.profile, cfg.total_dl_power - p_un)
        alloc = PowerAllocation(p_dl=wsse.p_dl, q_dl=mmf.q_dl,
                                p_up=wsse.p_up, q_up=mmf.q_up,
                                tau=system.n_pilots)
        report = empirical_sinr(system, cfg.profile, alloc, 2000, seed=seed)
        users = report.unicast + report.multicast
        z = NormalDist().inv_cdf(1 - 1e-3 / (2 * 3 * len(users)))
        for u in users:
            terms = {
                "desired": (u.desired_power - u.desired_power_analytic,
                            u.desired_power_se),
                "own": (u.self_interference + u.same_service_interference
                        - u.same_service_analytic,
                        math.hypot(u.self_interference_se,
                                   u.same_service_interference_se)),
                "cross": (u.cross_service_interference
                          - u.cross_service_analytic,
                          u.cross_service_interference_se),
            }
            for term, (diff, se) in terms.items():
                assert abs(diff) <= z * se, (u.service, u.index, term)


class TestConditionalMeanCalibration:
    def test_z_scores_have_unit_spread(self, small_config):
        # the reported SEs are the spread of the estimates they belong to:
        # over 100 seeds, each user's z-score of the desired and the
        # cross-service term has a standard deviation within 0.2 of 1 (the
        # sample deviation of 100 normals is 1 +- 0.07)
        config, profile, alloc = small_config
        z = []
        for seed in range(100):
            report = empirical_sinr(config, profile, alloc, 200, seed=seed)
            users = report.unicast + report.multicast
            z.append([[(u.desired_power - u.desired_power_analytic)
                       / u.desired_power_se for u in users],
                      [(u.cross_service_interference
                        - u.cross_service_analytic)
                       / u.cross_service_interference_se for u in users]])
        spread = np.std(z, axis=0, ddof=1)
        assert np.all((spread >= 0.8) & (spread <= 1.2)), spread

    def test_own_term_z_scores_have_unit_spread(self, small_config):
        # the own term (self-interference plus same-service interference)
        # over 100 seeds: each user's z-score has a standard deviation
        # within 0.2 of 1; the self-interference SE must be the spread of
        # mean |c|^2 - |mean c|^2, not of its two parts apart
        config, profile, alloc = small_config
        z = []
        for seed in range(100):
            report = empirical_sinr(config, profile, alloc, 200, seed=seed)
            z.append([(u.self_interference + u.same_service_interference
                       - u.same_service_analytic)
                      / math.hypot(u.self_interference_se,
                                   u.same_service_interference_se)
                      for u in report.unicast + report.multicast])
        spread = np.std(z, axis=0, ddof=1)
        assert np.all((spread >= 0.8) & (spread <= 1.2)), spread

    @pytest.mark.parametrize("n_antennas", [10**4, 10**8])
    def test_own_and_desired_z_scores_at_large_n(self, n_antennas):
        # ||y_c||^2 grows with N while its spread grows with sqrt(N): moment
        # sums of ||y_c||^2 itself cancel, and the own-term SE then reads 0
        # or its z-scores spread thousands of times too wide
        config, profile, alloc = _small_scenario(n_antennas)
        z = []
        for seed in range(100):
            report = empirical_sinr(config, profile, alloc, 200, seed=seed)
            users = report.unicast + report.multicast
            z.append([[(u.desired_power - u.desired_power_analytic)
                       / u.desired_power_se for u in users],
                      [(u.self_interference + u.same_service_interference
                        - u.same_service_analytic)
                       / math.hypot(u.self_interference_se,
                                    u.same_service_interference_se)
                       for u in users]])
        spread = np.std(z, axis=0, ddof=1)
        assert np.all((spread >= 0.8) & (spread <= 1.2)), spread


def _within_5_se(samples, expected):
    """The sample mean of ``samples`` lies within 5 SE of ``expected``."""
    se = np.std(samples) / math.sqrt(len(samples))
    assert abs(np.mean(samples) - expected) <= 5 * se, \
        (np.mean(samples), expected, se)


class TestOwnTerms:
    """The closed forms of ``_own_terms`` against drawn own coefficients
    c = mean X + spread sqrt(X) z, z ~ CN(0, 1)."""

    n = 10**6

    def _coefficients(self, rng, mean, spread, x):
        z = rng.standard_normal((len(x), 2)).view(np.complex128)[:, 0]
        return mean * x + spread * np.sqrt(x) * z / math.sqrt(2.0)

    @pytest.mark.parametrize("x", [3.5, 16.0, 250.0])
    @pytest.mark.parametrize("mean, spread", [(0.3, 1.2), (2.0, 0.05),
                                              (0.0, 0.7)])
    def test_moments_given_x(self, x, mean, spread):
        # given X, E[c] = mean X and E|c|^2 = desired + var_c
        c = self._coefficients(np.random.default_rng(61), mean, spread,
                               np.full(self.n, x))
        desired, _, var_c, _ = montecarlo._own_terms(mean, spread, x, 0.0,
                                                     0.0, 0.0, self.n)
        _within_5_se(c.real, math.sqrt(desired))
        _within_5_se(c.imag, 0.0)
        _within_5_se(np.abs(c)**2, desired + var_c)

    @pytest.mark.parametrize("n_antennas, scale", [(16, 4.0), (1000, 1.5)])
    @pytest.mark.parametrize("mean, spread", [(0.3, 1.2), (2.0, 0.05)])
    def test_moments_over_the_gamma_law(self, n_antennas, scale, mean,
                                        spread):
        # X = scale Gamma(N, 1): mean scale N and central moments
        # scale^2 N, 2 scale^3 N and scale^4 (3 N^2 + 6 N)
        rng = np.random.default_rng(62)
        x = scale * rng.standard_gamma(n_antennas, self.n)
        c = self._coefficients(rng, mean, spread, x)
        moments = (scale * n_antennas, scale**2 * n_antennas,
                   2 * scale**3 * n_antennas,
                   scale**4 * (3 * n_antennas**2 + 6 * n_antennas))
        desired, _, var_c, self_se = montecarlo._own_terms(
            mean, spread, *moments, self.n)
        _within_5_se(c.real, math.sqrt(desired))
        _within_5_se(np.abs(c)**2, desired + var_c)
        # the influence phi = mean^2 D^2 + spread^2 D, D = X - E X, of one
        # realization on var_c has the variance n self_se^2
        d = x - moments[0]
        phi = mean**2 * d**2 + spread**2 * d
        _within_5_se((phi - phi.mean())**2, self.n * self_se**2)
