"""Monte Carlo cross-validation of the closed-form SINR chain.

Simulates Rayleigh channel draws, pilot training with MMSE estimation, MRT
precoding, and accumulates every term of the SINR bound decomposition so each
analytic quantity can be compared against its empirical counterpart.

Reproducibility contract: realization ``i`` of a run with master seed ``s``
uses the RNG substream ``SeedSequence(s, spawn_key=(i,))``, and averages are
reduced in fixed chunk order, so sequential and parallel runs are
bit-identical.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .closed_form import EstimationStats, PowerAllocation, pilot_scaling
from .scenario import LargeScaleProfile, SystemConfig

_CHUNK = 512


@dataclass
class ChannelRealization:
    """One draw of every user's channel vector."""

    f: np.ndarray  # (U, N) complex
    g: list  # per group: (K_g, N) complex


@dataclass
class ChannelEstimates:
    f_hat: np.ndarray  # (U, N)
    g_hat_composite: np.ndarray  # (G, N)
    g_hat_user: list  # per group: (K_g, N)


def _crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussian samples."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def draw_channels(
    profile: LargeScaleProfile, config: SystemConfig, rng: np.random.Generator
) -> ChannelRealization:
    """i.i.d. Rayleigh channels with per-antenna variances beta / eta."""
    N = config.n_antennas
    beta = np.asarray(profile.beta)
    f = _crandn(rng, config.n_unicast, N) * np.sqrt(beta)[:, None]
    g = []
    for eta_grp in profile.eta:
        eta = np.asarray(eta_grp)
        g.append(_crandn(rng, len(eta_grp), N) * np.sqrt(eta)[:, None])
    return ChannelRealization(f=f, g=g)


def estimate_channels(
    realization: ChannelRealization,
    alloc: PowerAllocation,
    profile: LargeScaleProfile,
    rng: np.random.Generator,
) -> ChannelEstimates:
    """MMSE channel estimation from noisy uplink pilots.

    Unicast estimates are scaled noisy observations of each channel; each
    multicast group shares one pilot, so only the pilot-weighted composite
    channel is observed and every member's estimate is a scalar multiple of
    the composite estimate.
    """
    tau = alloc.tau
    N = realization.f.shape[1]

    # unicast: y_u = sqrt(tau p_u) f_u + n_u, scaled by sqrt(tau p)b/(1+tau p b)
    p_up = np.asarray(alloc.p_up)
    beta = np.asarray(profile.beta)
    noise_u = _crandn(rng, len(beta), N)
    scale = np.sqrt(tau * p_up) * beta / (1.0 + tau * p_up * beta)
    f_hat = scale[:, None] * (np.sqrt(tau * p_up)[:, None] * realization.f + noise_u)

    g_hat_composite = np.zeros((len(realization.g), N), dtype=complex)
    g_hat_user = []
    for j, (g_grp, q_grp, eta_grp) in enumerate(
        zip(realization.g, alloc.q_up, profile.eta)
    ):
        q = np.asarray(q_grp)
        eta = np.asarray(eta_grp)
        noise_g = _crandn(rng, N)
        observation = np.sqrt(tau * q) @ g_grp + noise_g
        s = float(np.sum(tau * q * eta))
        g_hat_composite[j] = s / (1.0 + s) * observation
        c = pilot_scaling(tau, q, eta)
        g_hat_user.append(c[:, None] * g_hat_composite[j][None, :])
    return ChannelEstimates(
        f_hat=f_hat, g_hat_composite=g_hat_composite, g_hat_user=g_hat_user
    )


def mrt_precoders(
    estimates: ChannelEstimates, alloc: PowerAllocation, stats: EstimationStats
) -> tuple[np.ndarray, np.ndarray]:
    """MRT precoding matrices V (N x U) and W (N x G).

    v_m = sqrt(p_m / (N*vartheta_m)) f_hat_m so that E||v_m||^2 = p_m, and
    analogously for the group precoders from the composite estimates.  Zero
    power or zero estimate variance gives a zero vector.
    """
    N = estimates.f_hat.shape[1]
    V = np.zeros((N, len(alloc.p_dl)), dtype=complex)
    for m, (p, var) in enumerate(zip(alloc.p_dl, stats.vartheta)):
        if p > 0.0 and var > 0.0:
            V[:, m] = np.sqrt(p / (N * var)) * estimates.f_hat[m]
    W = np.zeros((N, len(alloc.q_dl)), dtype=complex)
    for j, (q, var) in enumerate(zip(alloc.q_dl, stats.gamma)):
        if q > 0.0 and var > 0.0:
            W[:, j] = np.sqrt(q / (N * var)) * estimates.g_hat_composite[j]
    return V, W


@dataclass
class UserSinrBreakdown:
    """Empirical vs analytic SINR decomposition for a single user.

    The desired power is |E[h^H w]|^2; ``self_interference`` is the variance
    of the effective channel coefficient; the interference fields are mean
    received powers from the other precoders, grouped into the user's own
    service and the other service.
    """

    service: str  # "unicast" or "multicast"
    index: tuple  # (m,) or (group, member)
    desired_power: float
    desired_power_analytic: float
    desired_power_se: float
    self_interference: float
    self_interference_se: float
    same_service_interference: float
    same_service_interference_se: float
    cross_service_interference: float
    cross_service_interference_se: float
    same_service_analytic: float
    cross_service_analytic: float
    sinr_empirical: float
    sinr_analytic: float

    @property
    def sinr_relative_error(self) -> float:
        if self.sinr_analytic == 0.0:
            return abs(self.sinr_empirical)
        return abs(self.sinr_empirical - self.sinr_analytic) / self.sinr_analytic


@dataclass
class MonteCarloReport:
    n_realizations: int
    seed: int
    unicast: list
    multicast: list

    def to_dict(self) -> dict:
        def row(u: UserSinrBreakdown) -> dict:
            d = dict(u.__dict__)
            d["index"] = list(u.index)
            return d

        return {
            "n_realizations": self.n_realizations,
            "seed": self.seed,
            "unicast": [row(u) for u in self.unicast],
            "multicast": [row(u) for u in self.multicast],
        }


class _Accumulator:
    """Running sums of every per-realization term, merged in fixed order."""

    def __init__(self, n_un: int, n_mu: int, n_cols: int):
        self.n = 0
        # effective desired-channel coefficients (complex scalars per user)
        self.sum_a = np.zeros(n_un, dtype=complex)
        self.sum_re2_a = np.zeros(n_un)
        self.sum_abs2_a = np.zeros(n_un)
        self.sum_abs4_a = np.zeros(n_un)
        # received powers from each of the U+G precoders
        self.sum_cross_un = np.zeros((n_un, n_cols))
        self.sum_cross_un_sq = np.zeros((n_un, n_cols))
        self.sum_b = np.zeros(n_mu, dtype=complex)
        self.sum_re2_b = np.zeros(n_mu)
        self.sum_abs2_b = np.zeros(n_mu)
        self.sum_abs4_b = np.zeros(n_mu)
        self.sum_cross_mu = np.zeros((n_mu, n_cols))
        self.sum_cross_mu_sq = np.zeros((n_mu, n_cols))

    def add(self, a, cross_un, b, cross_mu):
        self.n += 1
        self.sum_a += a
        self.sum_re2_a += a.real**2
        abs2 = np.abs(a) ** 2
        self.sum_abs2_a += abs2
        self.sum_abs4_a += abs2**2
        self.sum_cross_un += cross_un
        self.sum_cross_un_sq += cross_un**2
        self.sum_b += b
        self.sum_re2_b += b.real**2
        abs2b = np.abs(b) ** 2
        self.sum_abs2_b += abs2b
        self.sum_abs4_b += abs2b**2
        self.sum_cross_mu += cross_mu
        self.sum_cross_mu_sq += cross_mu**2

    def merge(self, other: "_Accumulator"):
        self.n += other.n
        for name, val in vars(other).items():
            if name != "n":
                getattr(self, name).__iadd__(val)
        return self


def _run_chunk(config, profile, alloc, stats, seed, indices):
    U = config.n_unicast
    n_mu = config.n_multicast
    acc = _Accumulator(U, n_mu, U + config.n_groups)
    for i in indices:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        real = draw_channels(profile, config, rng)
        est = estimate_channels(real, alloc, profile, rng)
        V, W = mrt_precoders(est, alloc, stats)
        VW = np.hstack([V, W])
        rx_un = real.f.conj() @ VW  # (U, U+G): entry [m, u] = f_m^H vw_u
        a = rx_un[np.arange(U), np.arange(U)]
        g_all = np.vstack(real.g)  # (sum K_g, N)
        rx_mu = g_all.conj() @ VW
        # each multicast user's own column is its group precoder
        own_col = np.concatenate(
            [np.full(k, U + j) for j, k in enumerate(config.group_sizes)]
        )
        b = rx_mu[np.arange(n_mu), own_col]
        acc.add(a, np.abs(rx_un) ** 2, b, np.abs(rx_mu) ** 2)
    return acc


def _breakdowns(config, profile, alloc, stats, acc):
    """Turn the accumulated sums into per-user empirical/analytic reports."""
    n = acc.n
    U, G = config.n_unicast, config.n_groups
    p_un = alloc.unicast_power
    p_mu = alloc.multicast_power
    N = config.n_antennas

    def one(service, index, mean_c, re2, abs2, abs4, cross, cross_sq,
            same_cols, cross_cols, num_analytic, fade):
        desired = abs(mean_c) ** 2
        var_c = max(0.0, abs2 / n - desired)
        # delta-method SE of |mean|^2 plus the usual SE for mean powers
        var_re = max(0.0, re2 / n - mean_c.real**2)
        desired_se = 2.0 * abs(mean_c) * np.sqrt(var_re / n) + var_c / n
        var_abs2 = max(0.0, abs4 / n - (abs2 / n) ** 2)
        self_se = np.sqrt(var_abs2 / n + (2.0 * abs(mean_c)) ** 2 * var_re / n)

        mean_cross = cross / n
        var_cross = np.maximum(0.0, cross_sq / n - mean_cross**2)
        same = float(np.sum(mean_cross[same_cols]))
        same_se = float(np.sqrt(np.sum(var_cross[same_cols]) / n))
        other = float(np.sum(mean_cross[cross_cols]))
        other_se = float(np.sqrt(np.sum(var_cross[cross_cols]) / n))

        denom = 1.0 + var_c + same + other
        sinr_emp = desired / denom
        if service == "unicast":
            same_analytic = fade * p_un
            cross_analytic = fade * p_mu
        else:
            same_analytic = fade * p_mu
            cross_analytic = fade * p_un
        sinr_analytic = num_analytic / (1.0 + fade * (p_un + p_mu))
        return UserSinrBreakdown(
            service=service,
            index=index,
            desired_power=desired,
            desired_power_analytic=num_analytic,
            desired_power_se=float(desired_se),
            self_interference=var_c,
            self_interference_se=float(self_se),
            same_service_interference=same,
            same_service_interference_se=same_se,
            cross_service_interference=other,
            cross_service_interference_se=other_se,
            same_service_analytic=same_analytic,
            cross_service_analytic=cross_analytic,
            sinr_empirical=sinr_emp,
            sinr_analytic=sinr_analytic,
        )

    unicast = []
    for m in range(U):
        same_cols = [u for u in range(U) if u != m]
        cross_cols = list(range(U, U + G))
        # the user's own column enters through the desired power and var_c,
        # and var_c counts toward same-service interference analytically
        unicast.append(
            one(
                "unicast",
                (m,),
                acc.sum_a[m] / n,
                acc.sum_re2_a[m],
                acc.sum_abs2_a[m],
                acc.sum_abs4_a[m],
                acc.sum_cross_un[m],
                acc.sum_cross_un_sq[m],
                same_cols,
                cross_cols,
                N * alloc.p_dl[m] * stats.vartheta[m],
                profile.beta[m],
            )
        )

    multicast = []
    row = 0
    for j, k_g in enumerate(config.group_sizes):
        for k in range(k_g):
            same_cols = [U + g for g in range(G) if g != j]
            cross_cols = list(range(U))
            multicast.append(
                one(
                    "multicast",
                    (j, k),
                    acc.sum_b[row] / n,
                    acc.sum_re2_b[row],
                    acc.sum_abs2_b[row],
                    acc.sum_abs4_b[row],
                    acc.sum_cross_mu[row],
                    acc.sum_cross_mu_sq[row],
                    same_cols,
                    cross_cols,
                    N * alloc.q_dl[j] * stats.xi[j][k],
                    profile.eta[j][k],
                )
            )
            row += 1
    return unicast, multicast


def empirical_sinr(
    config: SystemConfig,
    profile: LargeScaleProfile,
    alloc: PowerAllocation,
    n_realizations: int,
    seed: int,
    n_workers: int = 1,
) -> MonteCarloReport:
    """Estimate every SINR decomposition term by sample averaging.

    Results are bit-identical for fixed (seed, n_realizations) regardless of
    ``n_workers``.
    """
    if n_realizations < 100:
        raise ValueError("n_realizations must be at least 100")
    alloc.check_feasible(config)
    stats = EstimationStats.from_allocation(alloc, profile)

    chunks = [
        range(i, min(i + _CHUNK, n_realizations))
        for i in range(0, n_realizations, _CHUNK)
    ]
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            accs = list(
                pool.map(
                    lambda c: _run_chunk(config, profile, alloc, stats, seed, c),
                    chunks,
                )
            )
    else:
        accs = [_run_chunk(config, profile, alloc, stats, seed, c) for c in chunks]

    total = accs[0]
    for acc in accs[1:]:
        total.merge(acc)

    unicast, multicast = _breakdowns(config, profile, alloc, stats, total)
    return MonteCarloReport(
        n_realizations=n_realizations, seed=seed, unicast=unicast,
        multicast=multicast,
    )
