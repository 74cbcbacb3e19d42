"""Monte Carlo cross-validation of the closed-form SINR chain.

Draws, per realization, what the SINR decomposition needs of Rayleigh
channels, MMSE estimates from noisy uplink pilots and MRT precoders, and
accumulates every term of the SINR bound decomposition so each analytic
quantity can be compared against its empirical counterpart.
``draw_channels``, ``estimate_channels`` and ``mrt_precoders`` simulate the
channels themselves; they are the reference that the draw is tested against.

Sufficient statistics: precoder c is w_c = G_c y_c, with y_c the pilot
observation of pilot c, whose N antennas have variance 1 + s_c, so
X_c = ||y_c||^2 = (1 + s_c) Gamma(N, 1).  Gaussian conditioning, the step
that gives the MMSE estimate, writes user k on pilot c as h_k = a_k y_c + r_k
with r_k ~ CN(0, sigma_k^2 I) independent of y_c.  So the own coefficient is
c_k = G_c (a_k X_c + sqrt(X_c) sigma_k z_k) with z_k ~ CN(0, 1): given X_c
it is complex Gaussian with mean G_c a_k X_c and variance G_c^2 sigma_k^2
X_c.  A precoder c' of another pilot is independent of h_k, so given y_c'
the power it delivers, |w_c'^H h_k|^2, is fading_k G_c'^2 X_c' Exp(1).  The
draw samples none of z_k or Exp(1): it takes each term as its exact
conditional mean given the X_c, a polynomial in X_c (conditional Monte
Carlo, or Rao-Blackwellisation; Asmussen and Glynn, Stochastic Simulation,
2007, V.4).  So every field and its SE estimates the same mean as a full
channel draw would, with the spread of the X_c alone; a wrong G_c, s_c,
a_k, sigma_k, fading or closed form still moves them.  A realization adds
only per-pilot sums of e^k, k = 1..4, with e = Gamma_c - N; every user's
terms are formed from the totals once per call, not per realization or
chunk.  No channel vector, no matmul and no per-user work is needed.

Reproducibility contract: realizations are split into chunks of ``_CHUNK``
at fixed starts 0, ``_CHUNK``, 2 ``_CHUNK``, ...; the chunk starting at
realization ``i`` of a run with master seed ``s`` draws its realizations in
order, one after the other, from the single stream
``Generator(SFC64(SeedSequence(s, spawn_key=(i,))))``.  Averages are reduced
in fixed chunk order, so sequential and parallel runs are bit-identical.
Parallel runs need independent streams per chunk, not one per realization
(L'Ecuyer et al., Math. Comput. Simul. 2017).

Draw layout of one realization: from its chunk's stream, U + G
``standard_gamma(N)`` draws, one per pilot (the U unicast pilots, then the
G group pilots): 30 values on the default scenario.

Working set: a chunk returns one (4, U + G) array of per-pilot sums and
draws ``_BATCH`` realizations at a time into two (``_BATCH``, U + G)
buffers that every block overwrites; it holds no per-user array.  A chunk's
range is made when the chunk is submitted, not before the first one runs.
Finished chunks are folded into the running total in chunk order as they
arrive.  At most two chunks per worker are in flight (submitted and not yet
folded), so chunks that finish ahead of their turn cannot pile up with their
sums.  The report holds each per-user field as two lists, the unicast and
multicast slices of one array.  One worker thread runs per CPU the process
may use (``usable_cpus``); restricting the process's CPU set (``taskset``, a
cpuset) runs fewer.  A chunk builds its generator once; the gamma fills,
most of a chunk's time, run without the GIL.  No step calls BLAS, so the BLAS
thread count changes neither the result nor the speed.  A chunk touches no
power, so a huge power cannot overflow there; it overflows the squared
entry powers (fading_k G_c^2)^2, which raises ``FloatingPointError`` before
any chunk starts, or the squared own terms of ``_own_terms``, which raises
it once the sums are folded.
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
                          pilot_scaling, user_sinr)
from .scenario import GroupLayout, Grouped, LargeScaleProfile, SystemConfig

_CHUNK = 512
# realizations of a chunk whose pilot gammas one fill draws
_BATCH = 64
# chunks in flight per worker: enough to keep every worker busy while the
# oldest chunk is folded
_WINDOW_PER_WORKER = 2
MIN_REALIZATIONS = 100


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else every CPU.  The number of Monte Carlo workers."""
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
class MonteCarloReport:
    """Every user's empirical and analytic SINR decomposition, as columns.

    ``columns`` maps each service, "unicast" and "multicast", to its table:
    each field name to a list of one value per user of that service, in
    user order.  The fields are:

    - ``service``: "unicast" or "multicast";
    - ``index``: (m,) for unicast user m, (group, member) for a member;
    - ``desired_power``, ``desired_power_se``: |E[h^H w]|^2, with w the
      user's own precoder;
    - ``self_interference``, ``self_interference_se``: the variance of the
      effective channel coefficient;
    - ``same_service_interference``, ``same_service_interference_se``: the
      mean received power from the other precoders of the user's service;
    - ``cross_service_interference``, ``cross_service_interference_se``:
      the mean received power from the other service's precoders;
    - ``desired_power_analytic``, ``same_service_analytic`` (the
      self-interference and same-service interference together) and
      ``cross_service_analytic``: their closed forms;
    - ``sinr_empirical`` and ``sinr_analytic``.

    Each empirical term is averaged from its mean given the pilot
    observations, a polynomial in their norms (see the module docstring);
    the SEs of the desired power and the self-interference are delta-method
    spreads over those norms.
    """

    n_realizations: int
    seed: int
    columns: dict


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
    """Per pilot c, row k - 1 sums e^k, k = 1..4, over the chunk, with
    e = Gamma_c - N the draw less its known mean, ||y_c||^2 =
    (1 + s_c) Gamma_c: the shift keeps the central moments that
    ``_breakdowns`` forms free of cancellation at any N."""
    sums = np.zeros((4, len(cond.one_plus_snr)))
    # overwritten by every block of the chunk: e and e^2
    e_block = np.empty((_BATCH, len(cond.one_plus_snr)))
    sq_block = np.empty_like(e_block)
    # the chunk's realizations, in order, each in the layout of the module
    # docstring, from one stream: the stream holds only gammas, so one fill
    # of a block reads what per-realization calls would
    rng = _substream(seed, indices.start)
    for start in range(0, len(indices), _BATCH):
        rows = min(_BATCH, len(indices) - start)
        e, sq = e_block[:rows], sq_block[:rows]
        rng.standard_gamma(cond.n_antennas, out=e)
        e -= cond.n_antennas
        np.square(e, out=sq)
        sums[0] += e.sum(axis=0)
        sums[1] += sq.sum(axis=0)
        sums[2] += np.einsum("ij,ij->j", sq, e)
        sums[3] += np.einsum("ij,ij->j", sq, sq)
    return sums


def _own_terms(mean, spread, x1, x2, x3, x4, n: int):
    """The desired power and the self-interference of own coefficients
    c = mean X + spread sqrt(X) z, z ~ CN(0, 1), with their SEs, from the
    mean x1 and the central moments x2, x3, x4 of X over n realizations.

    Given X, c is complex Gaussian with E[c | X] = mean X and
    E[|c|^2 | X] = mean^2 X^2 + spread^2 X, so |E c|^2 is estimated by
    (mean x1)^2 and Var c by mean^2 x2 + spread^2 x1 (conditional Monte
    Carlo): no z is drawn.
    """
    mean_sq, spread_sq = mean * mean, spread * spread
    desired = mean_sq * x1 * x1
    # delta-method SE of (mean x1)^2 plus the bias of the squared mean
    desired_se = 2.0 * mean_sq * x1 * np.sqrt(x2 / n) + mean_sq * x2 / n
    var_c = mean_sq * x2 + spread_sq * x1
    # delta method for var_c: realization i moves it by
    # phi = mean^2 D^2 + spread^2 D over n, D = X - x1, so its SE is the
    # spread of phi
    var_phi = (mean_sq**2 * np.maximum(0.0, x4 - x2 * x2)
               + 2.0 * mean_sq * spread_sq * x3 + spread_sq**2 * x2)
    return desired, desired_se, var_c, np.sqrt(np.maximum(0.0, var_phi) / n)


def _breakdowns(config, profile, alloc, stats, cond, sums, n: int):
    """Turn the ``_run_chunk`` sums of n realizations into per-user
    empirical/analytic terms: ``MonteCarloReport.columns``, the one place
    that defines its fields.

    Every array has one entry per user, unicast users first, then the group
    members in member order; each column is a slice of one of them.
    """
    U = config.n_unicast
    layout = config.layout
    group = layout.member_group
    p_un = alloc.unicast_power
    p_mu = alloc.multicast_power

    # ||y_c||^2 = (1 + s_c) Gamma_c: its mean m1 and central moments mu2,
    # mu3, mu4, from the sums of e = Gamma_c - N
    d, r2, r3, r4 = sums / n
    scale = cond.one_plus_snr
    m1 = scale * (cond.n_antennas + d)
    mu2 = scale**2 * np.maximum(0.0, r2 - d * d)
    mu3 = scale**3 * (r3 - 3.0 * d * r2 + 2.0 * d**3)
    mu4 = scale**4 * (r4 - 4.0 * d * r3 + 6.0 * d * d * r2 - 3.0 * d**4)

    desired, desired_se, var_c, self_se = _own_terms(
        cond.own_mean, cond.own_spread,
        *(m[cond.own_col] for m in (m1, mu2, mu3, mu4)), n)

    # same service: the other precoders of the user's own service (its own
    # column enters through the desired power and var_c, and var_c counts
    # toward same-service interference analytically); cross: the other
    # service's precoders.  |w_c^H h_k|^2 for a pilot c that user k does not
    # use is, given y_c, fading_k G_c^2 ||y_c||^2 Exp(1): its conditional
    # mean drops the Exp(1), and its spread is that of ||y_c||^2
    mean_cross = cond.entry_power * m1
    var_cross = cond.entry_power_sq * mu2
    is_unicast = cond.own_col < U
    cols = np.arange(config.n_pilots)
    same_block = is_unicast[:, None] == (cols < U)
    same = same_block & (cols != cond.own_col[:, None])
    same_power = np.sum(mean_cross * same, axis=1)
    cross_power = np.sum(mean_cross * ~same_block, axis=1)

    fade = profile.fading
    dl_power, variance, sinr = user_sinr(config, alloc, stats, profile)
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
        sinr_analytic=sinr,
    )
    member = np.arange(config.n_multicast) - layout.starts[group]
    unicast = {"service": ["unicast"] * U, "index": list(zip(range(U)))}
    multicast = {"service": ["multicast"] * config.n_multicast,
                 "index": list(zip(group.tolist(), member.tolist()))}
    for name, x in fields.items():
        unicast[name] = x[:U].tolist()
        multicast[name] = x[U:].tolist()
    return {"unicast": unicast, "multicast": multicast}


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
) -> MonteCarloReport:
    """Estimate every SINR decomposition term by sample averaging, on one
    worker thread per CPU the process may use (``usable_cpus``).

    Results are bit-identical for fixed (seed, n_realizations) regardless of
    the number of workers.  Raises
    ``FloatingPointError`` where a value overflows (a huge power): in the
    squared entry powers, before any chunk starts, or in the breakdowns,
    after every chunk has run.
    """
    if n_realizations < MIN_REALIZATIONS:
        raise ValueError(f"n_realizations must be at least {MIN_REALIZATIONS}")
    alloc.check_feasible(config)
    stats = EstimationStats.from_allocation(alloc, profile)

    cond = _Conditioning.of(config, profile, alloc, stats)
    run = functools.partial(_run_chunk, cond, seed)
    chunks = (range(i, min(i + _CHUNK, n_realizations))
              for i in range(0, n_realizations, _CHUNK))
    # each chunk's sums are folded into the total, in chunk order, as the
    # chunks finish
    n_workers = usable_cpus()
    total = np.zeros((4, config.n_pilots))
    with ThreadPoolExecutor(max_workers=n_workers) as pool, contextlib.closing(
            _in_order(pool, run, chunks,
                      _WINDOW_PER_WORKER * n_workers)) as finished:
        for sums in finished:
            total += sums

    return MonteCarloReport(
        n_realizations=n_realizations, seed=seed,
        columns=_breakdowns(config, profile, alloc, stats, cond, total,
                            n_realizations))
