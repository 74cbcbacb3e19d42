"""Monte Carlo cross-validation of the closed-form SINR chain.

Simulates Rayleigh channel draws, pilot training with MMSE estimation, MRT
precoding, and accumulates every term of the SINR bound decomposition so each
analytic quantity can be compared against its empirical counterpart.

Reproducibility contract: realization ``i`` of a run with master seed ``s``
uses the RNG substream ``SeedSequence(s, spawn_key=(i,))``, and averages are
reduced in fixed chunk order, so sequential and parallel runs are
bit-identical.

Draw layout of one realization: from its substream, first one block of
``2 N (U + sum K_g)`` standard normals for the channels, then one block of
``2 N (U + G)`` for the pilot noise.  Each block is read row by row, one row
per user (unicast users first, then the members of each group in order) or,
for the noise, per pilot (the U unicast pilots, then the G group pilots);
within a row the real and imaginary parts of the N antennas alternate.
This layout replaced a per-group draw order, so reports at a given seed
differ from those of earlier versions.

Working set: each chunk of realizations allocates its buffers once (the
channel normals, the received amplitudes ``h [V W]^*``, their powers and the
squared powers) and every realization of the chunk overwrites them.  The
group composites are one matmul of a (G, sum K_g) matrix of scaled pilot
amplitudes with the member channels, real and imaginary parts side by side,
so no weighted copy of the member channels is made.  Finished chunks are
folded into the running total in chunk order as they arrive.  At most two
chunks per worker are in flight (submitted and not yet folded), so chunks
that finish ahead of their turn cannot pile up with their sums.  By default
one worker thread runs per CPU the process may use (``usable_cpus``); numpy
releases the GIL in the normal fill and the matmuls, so the threads scale.
"""

from __future__ import annotations

import collections
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .closed_form import EstimationStats, PowerAllocation, pilot_scaling
from .scenario import GroupLayout, Grouped, LargeScaleProfile, SystemConfig

_CHUNK = 512
# chunks in flight per worker: enough to keep every worker busy while the
# oldest chunk is folded
_WINDOW_PER_WORKER = 2
MIN_REALIZATIONS = 100


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else every CPU.  The default number of Monte Carlo workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class ChannelRealization:
    """One draw of every user's channel vector.

    ``h`` stacks the U unicast rows and then each group's K_g rows; ``f`` and
    ``g`` are views of it.
    """

    h: np.ndarray  # (U + sum K_g, N) complex
    n_unicast: int
    layout: GroupLayout

    @property
    def f(self) -> np.ndarray:
        """Unicast channels, (U, N)."""
        return self.h[: self.n_unicast]

    @property
    def g(self) -> list:
        """Per group, the (K_g, N) member channels."""
        return np.split(self.h[self.n_unicast:], self.layout.starts[1:])


@dataclass
class ChannelEstimates:
    """MMSE estimates of the unicast channels and the group composites.

    The per-member estimates are formed only when ``g_hat_user`` is read,
    from the composites and the pilot inputs kept here.
    """

    f_hat: np.ndarray  # (U, N)
    g_hat_composite: np.ndarray  # (G, N)
    tau: int
    q_up: Grouped  # uplink pilot powers
    eta: Grouped  # large-scale fading

    @property
    def g_hat_user(self) -> list:
        """Per group, the (K_g, N) member estimates c_k times the composite,
        with c from ``pilot_scaling``."""
        return [pilot_scaling(self.tau, q, eta)[:, None] * composite[None, :]
                for q, eta, composite
                in zip(self.q_up, self.eta, self.g_hat_composite)]


def _crandn(rng: np.random.Generator, std: np.ndarray, n: int,
            out: np.ndarray | None = None) -> np.ndarray:
    """Rows of circularly-symmetric complex Gaussians, row r CN(0, std_r^2 I).

    One ``standard_normal`` call fills all rows, real and imaginary parts
    interleaved, into ``out`` (a float (rows, 2n) array) if it is given.
    """
    x = rng.standard_normal((len(std), 2 * n), out=out)
    x *= np.sqrt(0.5) * std[:, None]
    return x.view(np.complex128)


def draw_channels(
    profile: LargeScaleProfile, config: SystemConfig, rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> ChannelRealization:
    """i.i.d. Rayleigh channels with per-antenna variances beta / eta.

    ``out``, a float (U + sum K_g, 2N) array, receives the draw; the
    realization's ``h`` is then a view of it.
    """
    config.check_users("profile", len(profile.beta), profile.eta)
    h = _crandn(rng, np.sqrt(profile.fading), config.n_antennas, out)
    return ChannelRealization(h=h, n_unicast=config.n_unicast,
                              layout=config.layout)


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
    U, N = realization.f.shape
    starts = realization.layout.starts
    group = realization.layout.member_group
    # one scale per pilot: the U unicast pilots, then the G group pilots
    scale = np.empty(U + len(starts))

    # unicast: y_u = sqrt(tau p_u) f_u + n_u, scaled by sqrt(tau p)b/(1+tau p b)
    p_up = np.asarray(alloc.p_up)
    beta = profile.fading[:U]
    root_p = np.sqrt(tau * p_up)
    scale[:U] = root_p * beta / (1.0 + tau * p_up * beta)
    # group j: y_j = sum_k sqrt(tau q_k) g_k + n_j, scaled by s_j/(1+s_j)
    q_up = alloc.q_up.flat
    root_q = np.sqrt(tau * q_up)
    s = np.add.reduceat(tau * q_up * profile.eta.flat, starts)
    scale[U:] = s / (1.0 + s)

    # the scaled pilot noise, to which the scaled pilot signal is added
    estimates = _crandn(rng, scale, N)
    est = estimates.view(np.float64)
    est[:U] += (scale[:U] * root_p)[:, None] * realization.f.view(np.float64)
    # entry [j, k] is s_j/(1+s_j) sqrt(tau q_k) for member k of group j
    weights = np.zeros((len(starts), len(group)))
    weights[group, np.arange(len(group))] = scale[U:][group] * root_q
    est[U:] += weights @ realization.h[U:].view(np.float64)
    return ChannelEstimates(f_hat=estimates[:U],
                            g_hat_composite=estimates[U:], tau=tau,
                            q_up=alloc.q_up, eta=profile.eta)


def _mrt_gains(power, variance, n_antennas: int) -> np.ndarray:
    """sqrt(p / (N var)) per precoder, 0 where p or var is 0."""
    p = np.asarray(power, dtype=float)
    var = np.asarray(variance, dtype=float)
    on = (p > 0.0) & (var > 0.0)
    return np.sqrt(np.divide(p, n_antennas * var, out=np.zeros_like(p),
                             where=on))


def mrt_precoders(
    estimates: ChannelEstimates, alloc: PowerAllocation, stats: EstimationStats
) -> tuple[np.ndarray, np.ndarray]:
    """MRT precoding matrices V (N x U) and W (N x G).

    v_m = sqrt(p_m / (N*vartheta_m)) f_hat_m so that E||v_m||^2 = p_m, and
    analogously for the group precoders from the composite estimates.  Zero
    power or zero estimate variance gives a zero vector.
    """
    N = estimates.f_hat.shape[1]
    V = _mrt_gains(alloc.p_dl, stats.vartheta, N)[:, None] * estimates.f_hat
    W = _mrt_gains(alloc.q_dl, stats.gamma, N)[:, None] \
        * estimates.g_hat_composite
    return V.T, W.T


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
        return asdict(self)


class _Accumulator:
    """Running sums of every per-realization term, merged in fixed order.

    Rows are users (unicast first, then every group's members); columns are
    the U + G precoders, so a user's own column holds its |c|^2 and |c|^4.
    """

    def __init__(self, n_users: int, n_cols: int):
        self.n = 0
        # effective desired-channel coefficients (complex scalars per user)
        self.sum_c = np.zeros(n_users, dtype=complex)
        self.sum_re2_c = np.zeros(n_users)
        # received powers from each of the U+G precoders
        self.sum_cross = np.zeros((n_users, n_cols))
        self.sum_cross_sq = np.zeros((n_users, n_cols))

    def add(self, c, cross, cross_sq):
        self.n += 1
        self.sum_c += c
        self.sum_re2_c += c.real**2
        self.sum_cross += cross
        self.sum_cross_sq += cross_sq

    def merge(self, other: "_Accumulator"):
        self.n += other.n
        for name, val in vars(other).items():
            if name != "n":
                getattr(self, name).__iadd__(val)
        return self


# a huge power overflows the squared powers, and the report's non-finite
# values then fail its JSON write; set per call, as errstate is per thread
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


@_QUIET_OVERFLOW
def _run_chunk(config, profile, alloc, stats, own_col, seed, indices):
    users = np.arange(len(own_col))
    shape = (len(users), config.n_pilots)
    acc = _Accumulator(*shape)
    # overwritten by every realization of the chunk
    normals = np.empty((len(users), 2 * config.n_antennas))
    rx = np.empty(shape, dtype=complex)
    power, square = np.empty(shape), np.empty(shape)
    for i in indices:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        real = draw_channels(profile, config, rng, out=normals)
        est = estimate_channels(real, alloc, profile, rng)
        V, W = mrt_precoders(est, alloc, stats)
        # entry [m, u] is conj(h_m^H vw_u): conjugating the small precoder
        # matrix instead of the channels keeps the same powers
        np.matmul(real.h, np.hstack([V, W]).conj(), out=rx)
        np.square(rx.real, out=power)
        power += np.square(rx.imag, out=square)
        acc.add(rx[users, own_col].conj(), power,
                np.square(power, out=square))
    return acc


@_QUIET_OVERFLOW
def _breakdowns(config, profile, alloc, stats, own_col, acc):
    """Turn the accumulated sums into per-user empirical/analytic reports.

    Every array has one entry per user, unicast users first, then the group
    members in member order.
    """
    n = acc.n
    U = config.n_unicast
    layout = config.layout
    group = layout.member_group
    p_un = alloc.unicast_power
    p_mu = alloc.multicast_power

    users = np.arange(len(own_col))
    mean_abs2 = acc.sum_cross[users, own_col] / n
    mean_c = acc.sum_c / n
    desired = np.abs(mean_c) ** 2
    var_c = np.maximum(0.0, mean_abs2 - desired)
    # delta-method SE of |mean|^2 plus the usual SE for mean powers
    var_re = np.maximum(0.0, acc.sum_re2_c / n - mean_c.real**2)
    desired_se = 2.0 * np.abs(mean_c) * np.sqrt(var_re / n) + var_c / n
    var_abs2 = np.maximum(0.0, acc.sum_cross_sq[users, own_col] / n
                          - mean_abs2**2)
    self_se = np.sqrt(var_abs2 / n
                      + (2.0 * np.abs(mean_c)) ** 2 * var_re / n)

    # same service: the other precoders of the user's own service (its own
    # column enters through the desired power and var_c, and var_c counts
    # toward same-service interference analytically); cross: the other
    # service's precoders
    mean_cross = acc.sum_cross / n
    var_cross = np.maximum(0.0, acc.sum_cross_sq / n - mean_cross**2)
    is_unicast = own_col < U
    cols = np.arange(config.n_pilots)
    same_block = is_unicast[:, None] == (cols < U)
    same = same_block & (cols != own_col[:, None])
    same_power = np.sum(mean_cross * same, axis=1)
    cross_power = np.sum(mean_cross * ~same_block, axis=1)

    fade = profile.fading
    dl_power = np.concatenate([alloc.p_dl, np.asarray(alloc.q_dl)[group]])
    variance = np.concatenate([stats.vartheta, stats.xi.flat])
    num_analytic = config.n_antennas * dl_power * variance
    fields = dict(
        desired_power=desired, desired_power_analytic=num_analytic,
        desired_power_se=desired_se, self_interference=var_c,
        self_interference_se=self_se, same_service_interference=same_power,
        same_service_interference_se=np.sqrt(
            np.sum(var_cross * same, axis=1) / n),
        cross_service_interference=cross_power,
        cross_service_interference_se=np.sqrt(
            np.sum(var_cross * ~same_block, axis=1) / n),
        same_service_analytic=fade * np.where(is_unicast, p_un, p_mu),
        cross_service_analytic=fade * np.where(is_unicast, p_mu, p_un),
        sinr_empirical=desired / (1.0 + var_c + same_power + cross_power),
        sinr_analytic=num_analytic / (1.0 + fade * (p_un + p_mu)),
    )
    services = ["unicast"] * U + ["multicast"] * config.n_multicast
    member = np.arange(config.n_multicast) - layout.starts[group]
    indices = list(zip(range(U))) + list(zip(group.tolist(), member.tolist()))
    rows = [
        UserSinrBreakdown(service=service, index=index,
                          **dict(zip(fields, values)))
        for service, index, *values in zip(
            services, indices, *(x.tolist() for x in fields.values()))
    ]
    return rows[:U], rows[U:]


def _in_order(pool, fn, items, window: int):
    """``pool.map(fn, items)`` with at most ``window`` calls submitted and
    not yet taken, so results that finish ahead of their turn cannot pile
    up while an earlier one still runs."""
    pending = collections.deque()
    try:
        for item in items:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:  # after a failure, start nothing more
        for future in pending:
            future.cancel()


def empirical_sinr(
    config: SystemConfig,
    profile: LargeScaleProfile,
    alloc: PowerAllocation,
    n_realizations: int,
    seed: int,
    n_workers: int | None = None,
) -> MonteCarloReport:
    """Estimate every SINR decomposition term by sample averaging.

    Results are bit-identical for fixed (seed, n_realizations) regardless of
    ``n_workers``, which defaults to ``usable_cpus()``.
    """
    if n_realizations < MIN_REALIZATIONS:
        raise ValueError(f"n_realizations must be at least {MIN_REALIZATIONS}")
    alloc.check_feasible(config)
    stats = EstimationStats.from_allocation(alloc, profile)

    # each user's own precoder column: m for unicast user m, U + j for the
    # members of group j
    U = config.n_unicast
    own_col = np.concatenate([np.arange(U), U + config.layout.member_group])

    run = functools.partial(_run_chunk, config, profile, alloc, stats,
                            own_col, seed)
    chunks = [range(i, min(i + _CHUNK, n_realizations))
              for i in range(0, n_realizations, _CHUNK)]
    # each chunk's sums are folded into the first chunk's, in chunk order,
    # as the chunks finish
    if n_workers is None:
        n_workers = usable_cpus()
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        total = functools.reduce(
            _Accumulator.merge,
            _in_order(pool, run, chunks, _WINDOW_PER_WORKER * n_workers))

    unicast, multicast = _breakdowns(config, profile, alloc, stats, own_col,
                                     total)
    return MonteCarloReport(
        n_realizations=n_realizations, seed=seed, unicast=unicast,
        multicast=multicast,
    )
