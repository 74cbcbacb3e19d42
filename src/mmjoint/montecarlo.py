"""Monte Carlo cross-validation of the closed-form SINR chain.

Draws, per realization, what the SINR decomposition needs of Rayleigh
channels, MMSE estimates from noisy uplink pilots and MRT precoders, and
accumulates every term of the SINR bound decomposition so each analytic
quantity can be compared against its empirical counterpart.
``draw_channels``, ``estimate_channels`` and ``mrt_precoders`` simulate the
channels themselves; they are the reference that the draw is tested against.

Sufficient statistics: precoder c is w_c = G_c y_c, with y_c the pilot
observation of pilot c, whose N antennas have variance 1 + s_c.  Gaussian
conditioning, the step that gives the MMSE estimate, writes user k on pilot
c as h_k = a_k y_c + r_k with r_k ~ CN(0, sigma_k^2 I) independent of y_c.
So the own coefficient is G_c (a_k ||y_c||^2 + ||y_c|| sigma_k z_k) with
z_k ~ CN(0, 1).  A precoder c' of another pilot is independent of h_k, so
given y_c' the power it delivers, |w_c'^H h_k|^2, is
fading_k G_c'^2 ||y_c'||^2 Exp(1).  The draw keeps the own coefficient
sampled, since the desired power and the self-interference are read from
it, but takes each other power as its exact conditional mean
fading_k G_c'^2 ||y_c'||^2: the Exp(1) factor only adds noise of known mean
1 (conditional Monte Carlo, or Rao-Blackwellisation).  So the interference
fields and their SEs estimate the same means as a full channel draw would,
with the spread of ||y_c'||^2 alone; a wrong G_c, s_c, fading or closed form
still moves them.  So a realization adds only per-user sums of its own
coefficients' moments and per-pilot sums of ||y_c||^2 and ||y_c||^4; the
(user, precoder) powers are formed from them once per call, not per
realization or chunk.  No channel vector and no matmul is needed.

Reproducibility contract: realizations are split into chunks of ``_CHUNK``
at fixed starts 0, ``_CHUNK``, 2 ``_CHUNK``, ...; the chunk starting at
realization ``i`` of a run with master seed ``s`` draws its realizations in
order, one after the other, from the single stream
``Generator(SFC64(SeedSequence(s, spawn_key=(i,))))``.  Averages are reduced
in fixed chunk order, so sequential and parallel runs are bit-identical.
Parallel runs need independent streams per chunk, not one per realization
(L'Ecuyer et al., Math. Comput. Simul. 2017); earlier versions built one
generator per realization, so reports at a given seed differ from theirs
in every realization but the first of each chunk.

Draw layout of one realization: from its chunk's stream, first U + G
``standard_gamma(N)`` draws, one per pilot (the U unicast pilots, then the
G group pilots), giving ||y_c||^2 = (1 + s_c) Gamma(N, 1); then U + sum K_g
complex normals z_k, unicast users first, then the members of each group in
order, real and imaginary parts alternating.  That is U + G + 2 (U + sum K_g)
values, 2 070 on the default scenario.  This layout replaced a
(U + sum K_g, U + G) block of exponentials between the two (and earlier the
channel and pilot-noise normals, and SFC64 the PCG64 before them), so
reports at a given seed differ from those of earlier versions.

Working set: a chunk of realizations keeps the per-pilot and per-user sums
of its ``_Accumulator`` and forms the coefficients of ``_BATCH``
realizations at a time in buffers that every batch overwrites; it holds no
(users, U + G) array.  Finished chunks are folded into the running total in
chunk order as they arrive.  At most two chunks per worker are in flight
(submitted and not yet folded), so chunks that finish ahead of their turn
cannot pile up with their sums.  By default one worker thread runs per CPU
the process may use (``usable_cpus``).  A chunk builds its generator once;
the random fills, most of a realization's time, run without the GIL, so
the workers' chunks run side by side.  No step calls BLAS, so the BLAS
thread count changes neither the result nor the speed.  A huge power
overflows the squared entry powers (fading_k G_c^2)^2, which raises
``FloatingPointError`` before any chunk starts, or the own coefficients'
|c_k|^4 (the N-fold larger term), which raises it in a chunk and cancels
the pending chunks.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .closed_form import (RAISE_FP_ERRORS, EstimationStats, PowerAllocation,
                          mrt_sinr, pilot_scaling)
from .scenario import GroupLayout, Grouped, LargeScaleProfile, SystemConfig

_CHUNK = 512
# realizations of a chunk whose own coefficients are formed together
_BATCH = 16
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


def _crandn(rng: np.random.Generator, std: np.ndarray, n: int) -> np.ndarray:
    """Row r of circularly-symmetric complex Gaussians CN(0, std_r^2 I), all
    from one ``standard_normal`` call, real and imaginary parts interleaved."""
    x = rng.standard_normal((len(std), 2 * n))
    x *= np.sqrt(0.5) * std[:, None]
    return x.view(np.complex128)


def draw_channels(profile: LargeScaleProfile, config: SystemConfig,
                  rng: np.random.Generator) -> ChannelRealization:
    """i.i.d. Rayleigh channels with per-antenna variances beta / eta."""
    config.check_users("profile", len(profile.beta), profile.eta)
    h = _crandn(rng, np.sqrt(profile.fading), config.n_antennas)
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
    service and the other service, averaged from their means given the
    pilot observations (see the module docstring).
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
        """``dataclasses.asdict`` of the report, built row by row."""
        return {"n_realizations": self.n_realizations, "seed": self.seed,
                "unicast": [dict(vars(row)) for row in self.unicast],
                "multicast": [dict(vars(row)) for row in self.multicast]}


class _Accumulator:
    """Running sums of what the draw produces, merged in fixed order.

    Per user k (unicast first, then every group's members), sums of the own
    coefficient c_k's moments; per pilot c (the U unicast pilots, then the
    G group pilots), sums of ||y_c||^2 and ||y_c||^4.  The power that
    precoder c delivers to a user of another pilot has the conditional mean
    fading_k G_c^2 ||y_c||^2, so ``_breakdowns`` forms every such mean and
    its spread from the per-pilot sums.
    """

    def __init__(self, n_users: int, n_pilots: int):
        self.n = 0
        # own coefficients: sums of c, (Re c)^2, Re c Im c, |c|^2 c, |c|^2
        # and |c|^4
        self.sum_c = np.zeros(n_users, dtype=complex)
        self.sum_re2_c = np.zeros(n_users)
        self.sum_re_im_c = np.zeros(n_users)
        self.sum_abs2_c = np.zeros(n_users, dtype=complex)
        self.sum_abs2 = np.zeros(n_users)
        self.sum_abs4 = np.zeros(n_users)
        # pilot observations: sums of ||y_c||^2 and ||y_c||^4
        self.sum_norm2 = np.zeros(n_pilots)
        self.sum_norm4 = np.zeros(n_pilots)

    def merge(self, other: "_Accumulator"):
        self.n += other.n
        for name, val in vars(other).items():
            if name != "n":
                getattr(self, name).__iadd__(val)
        return self


def _substream(seed: int, i: int) -> np.random.Generator:
    """The generator of the chunk whose first realization is ``i``: SFC64 on
    the substream ``SeedSequence(seed, spawn_key=(i,))``.  The chunk reads
    all its realizations from it, in order."""
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(i,))))


@dataclass(frozen=True)
class _Conditioning:
    """What a realization's draw needs, computed once per call.

    Pilots c are the U unicast pilots, then the G group pilots; users k are
    the unicast users, then every group's members.  Precoder c is
    w_c = G_c y_c, with y_c the pilot observation of per-antenna variance
    1 + s_c; user k on pilot c has h_k = a_k y_c + r_k, with
    r_k ~ CN(0, sigma_k^2 I) independent of y_c.
    """

    n_antennas: int
    one_plus_snr: np.ndarray  # (U + G,) 1 + s_c
    entry_power: np.ndarray  # (users, U + G) fading_k G_c^2
    entry_power_sq: np.ndarray  # its square: a huge power overflows here
    own_col: np.ndarray  # (users,) the pilot c of user k
    own_mean: np.ndarray  # (users,) G_c a_k
    own_spread: np.ndarray  # (users,) G_c sigma_k

    @classmethod
    def of(cls, config, profile, alloc, stats) -> "_Conditioning":
        """s_c is tau p_m beta_m for unicast pilot m and sum_k tau q_k eta_k
        for group j; a_k = sqrt(tau pilot_k) fading_k / (1 + s_c) and
        sigma_k^2 = fading_k - a_k^2 (1 + s_c), from the pilot powers and
        the fading rather than the closed forms, so that a wrong xi still
        disagrees with the draw.  G_c is the estimate scale of
        ``estimate_channels`` times the MRT gain of ``mrt_precoders``."""
        U = config.n_unicast
        # user k's pilot: m for unicast user m, U + j for the members of
        # group j
        own_col = np.concatenate([np.arange(U),
                                  U + config.layout.member_group])
        fading = profile.fading
        pilot = alloc.tau * np.concatenate([alloc.p_up, alloc.q_up.flat])
        snr = np.concatenate([
            pilot[:U] * fading[:U],
            np.add.reduceat(pilot[U:] * fading[U:], config.layout.starts)])
        one_plus_snr = 1.0 + snr
        scale = np.concatenate([np.sqrt(pilot[:U]) * fading[:U], snr[U:]])
        gain = scale / one_plus_snr * _mrt_gains(
            np.concatenate([alloc.p_dl, alloc.q_dl]),
            np.concatenate([stats.vartheta, stats.gamma]), config.n_antennas)
        a = np.sqrt(pilot) * fading / one_plus_snr[own_col]
        # rounding can leave a tiny negative variance when s_c >> 1
        variance = np.maximum(0.0, fading - a * a * one_plus_snr[own_col])
        entry_power = fading[:, None] * gain**2
        return cls(n_antennas=config.n_antennas, one_plus_snr=one_plus_snr,
                   entry_power=entry_power,
                   entry_power_sq=np.square(entry_power), own_col=own_col,
                   own_mean=gain[own_col] * a,
                   own_spread=gain[own_col] * np.sqrt(variance))


@RAISE_FP_ERRORS  # per worker thread: errstate does not cross threads
def _run_chunk(cond: _Conditioning, seed, indices):
    n_users, n_pilots = len(cond.own_col), len(cond.one_plus_snr)
    acc = _Accumulator(n_users, n_pilots)
    acc.n = len(indices)
    half_spread = np.sqrt(0.5) * cond.own_spread
    # overwritten by every batch of the chunk
    gammas = np.empty((_BATCH, n_pilots))
    normals = np.empty((_BATCH, n_users, 2))
    # two (realization, user) arrays: ||y_c||^2 on each user's own pilot
    # and the spread factor of z_k, then (Re c_k)^2 and (Im c_k)^2
    work = np.empty((2, _BATCH, n_users))
    # the chunk's realizations, in order, each in the layout of the module
    # docstring, from one stream
    rng = _substream(seed, indices.start)
    for start in range(0, len(indices), _BATCH):
        rows = min(_BATCH, len(indices) - start)
        for row in range(rows):
            rng.standard_gamma(cond.n_antennas, out=gammas[row])
            rng.standard_normal(out=normals[row])
        # ||y_c||^2 per realization and pilot
        norm2 = gammas[:rows] * cond.one_plus_snr
        acc.sum_norm2 += norm2.sum(axis=0)
        acc.sum_norm4 += np.square(norm2).sum(axis=0)
        # w_c^H h_k = G_c (a_k ||y_c||^2 + ||y_c|| sigma_k z_k) on its own
        # pilot, with z_k ~ CN(0, 1)
        own_norm2, spread = work[:, :rows]
        np.take(norm2, cond.own_col, axis=1, out=own_norm2)
        np.sqrt(own_norm2, out=spread)
        spread *= half_spread
        c = normals[:rows].view(np.complex128)[..., 0]
        c *= spread
        c += np.multiply(own_norm2, cond.own_mean, out=own_norm2)
        acc.sum_c += c.sum(axis=0)
        re2 = np.square(c.real, out=own_norm2)
        acc.sum_re2_c += re2.sum(axis=0)
        acc.sum_re_im_c += np.einsum("ij,ij->j", c.real, c.imag)
        abs2 = np.add(re2, np.square(c.imag, out=spread), out=re2)
        acc.sum_abs2 += abs2.sum(axis=0)
        acc.sum_abs4 += np.einsum("ij,ij->j", abs2, abs2)
        acc.sum_abs2_c += np.einsum("ij,ij->j", abs2, c)
    return acc


def _breakdowns(config, profile, alloc, stats, cond, acc):
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

    mean_abs2 = acc.sum_abs2 / n
    mean_c = acc.sum_c / n
    desired = np.abs(mean_c) ** 2
    var_c = np.maximum(0.0, mean_abs2 - desired)
    # delta-method SE of |mean|^2 plus the usual SE for mean powers
    var_re = np.maximum(0.0, acc.sum_re2_c / n - mean_c.real**2)
    desired_se = 2.0 * np.abs(mean_c) * np.sqrt(var_re / n) + var_c / n
    # delta method for var_c: realization i moves it by
    # phi = |c|^2 - 2 Re(conj(mean_c) c) over n, up to a constant, so its SE
    # is the spread of phi; the sum of Re(conj(mean_c) c)^2 from those of
    # (Re c)^2, (Im c)^2 and Re c Im c
    m_re, m_im = mean_c.real, mean_c.imag
    sum_im2 = acc.sum_abs2 - acc.sum_re2_c
    sum_proj2 = (m_re**2 * acc.sum_re2_c + m_im**2 * sum_im2
                 + 2.0 * m_re * m_im * acc.sum_re_im_c)
    mean_phi2 = (acc.sum_abs4
                 - 4.0 * (np.conj(mean_c) * acc.sum_abs2_c).real
                 + 4.0 * sum_proj2) / n
    var_phi = np.maximum(0.0, mean_phi2 - (mean_abs2 - 2.0 * desired)**2)
    self_se = np.sqrt(var_phi / n)

    # same service: the other precoders of the user's own service (its own
    # column enters through the desired power and var_c, and var_c counts
    # toward same-service interference analytically); cross: the other
    # service's precoders.  |w_c^H h_k|^2 for a pilot c that user k does not
    # use is, given y_c, fading_k G_c^2 ||y_c||^2 Exp(1): its conditional
    # mean drops the Exp(1), and its spread is that of ||y_c||^2
    mean_norm2 = acc.sum_norm2 / n
    mean_cross = cond.entry_power * mean_norm2
    var_cross = cond.entry_power_sq * np.maximum(
        0.0, acc.sum_norm4 / n - mean_norm2**2)
    is_unicast = cond.own_col < U
    cols = np.arange(config.n_pilots)
    same_block = is_unicast[:, None] == (cols < U)
    same = same_block & (cols != cond.own_col[:, None])
    same_power = np.sum(mean_cross * same, axis=1)
    cross_power = np.sum(mean_cross * ~same_block, axis=1)

    fade = profile.fading
    dl_power = np.concatenate([alloc.p_dl, np.asarray(alloc.q_dl)[group]])
    variance = np.concatenate([stats.vartheta, stats.xi.flat])
    fields = dict(
        desired_power=desired,
        desired_power_analytic=config.n_antennas * dl_power * variance,
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
        sinr_analytic=mrt_sinr(config.n_antennas, dl_power, variance, fade,
                               p_un + p_mu),
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


@RAISE_FP_ERRORS
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
    ``n_workers``, which defaults to ``usable_cpus()``.  Raises
    ``FloatingPointError`` where a value overflows (a huge power), in a
    chunk, the fold of the sums or the breakdowns; the pending chunks are
    then cancelled.
    """
    if n_realizations < MIN_REALIZATIONS:
        raise ValueError(f"n_realizations must be at least {MIN_REALIZATIONS}")
    alloc.check_feasible(config)
    stats = EstimationStats.from_allocation(alloc, profile)

    cond = _Conditioning.of(config, profile, alloc, stats)
    run = functools.partial(_run_chunk, cond, seed)
    chunks = [range(i, min(i + _CHUNK, n_realizations))
              for i in range(0, n_realizations, _CHUNK)]
    # each chunk's sums are folded into the first chunk's, in chunk order,
    # as the chunks finish
    if n_workers is None:
        n_workers = usable_cpus()
    with ThreadPoolExecutor(max_workers=n_workers) as pool, contextlib.closing(
            _in_order(pool, run, chunks,
                      _WINDOW_PER_WORKER * n_workers)) as finished:
        total = None
        for acc in finished:
            total = acc if total is None else total.merge(acc)

    unicast, multicast = _breakdowns(config, profile, alloc, stats, cond,
                                     total)
    return MonteCarloReport(
        n_realizations=n_realizations, seed=seed, unicast=unicast,
        multicast=multicast,
    )
