"""Closed-form estimation statistics and SINR / spectral-efficiency expressions.

Everything here is evaluated in natural (linear) scale with float64; dB
conversion is left to the I/O boundary.  Infeasible allocations raise instead
of being clamped, so sweep code cannot silently corrupt results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import Grouped, LargeScaleProfile, SystemConfig

# relative slack when checking the total-power constraint, absorbs roundoff
# from solvers that place the allocation exactly on the power boundary
_POWER_FEASIBILITY_RTOL = 1e-9


class InfeasibleAllocationError(ValueError):
    """Raised when a power allocation violates its feasibility constraints."""


@dataclass
class PowerAllocation:
    """Full decision-variable tuple: downlink powers, pilot powers, pilot length."""

    p_dl: list
    q_dl: list
    p_up: list
    q_up: Grouped
    tau: int

    def __post_init__(self):
        self.p_dl = [float(p) for p in self.p_dl]
        self.q_dl = [float(q) for q in self.q_dl]
        self.p_up = [float(p) for p in self.p_up]
        self.q_up = Grouped(self.q_up)
        self.tau = int(self.tau)
        if self.tau < 1:
            raise ValueError("tau must be a positive integer")
        if len(self.p_dl) != len(self.p_up) or len(self.q_dl) != len(self.q_up):
            raise ValueError("p_dl and p_up must cover the same unicast users, "
                             "q_dl and q_up the same groups")
        powers = np.concatenate([self.p_dl, self.q_dl, self.p_up, self.q_up.flat])
        if np.any(powers < 0):
            raise ValueError("powers must be nonnegative")

    @property
    def unicast_power(self) -> float:
        """Total downlink unicast power P_un."""
        return float(np.sum(self.p_dl))

    @property
    def multicast_power(self) -> float:
        """Total downlink multicast power P_mu."""
        return float(np.sum(self.q_dl))

    def check_feasible(self, config: SystemConfig):
        """Validate the users covered and the total-power and pilot-energy
        constraints."""
        config.check_users("allocation", len(self.p_up), self.q_up)
        total = self.unicast_power + self.multicast_power
        budget = config.total_dl_power
        slack = 1.0 + _POWER_FEASIBILITY_RTOL
        if total > budget * slack:
            raise InfeasibleAllocationError(
                f"downlink power {total!r} violates P_un + P_mu <= P "
                f"with P = {budget!r}"
            )
        over = self.tau * np.asarray(self.p_up) \
            > np.asarray(config.unicast_energy_budgets) * slack
        if over.any():
            raise InfeasibleAllocationError(
                f"unicast pilot energy tau*p_up exceeds budget for user "
                f"{np.argmax(over)}"
            )
        over = self.tau * self.q_up.flat \
            > config.multicast_energy_budgets.flat * slack
        if over.any():
            member = np.argmax(over)
            j = config.layout.member_group[member]
            raise InfeasibleAllocationError(
                f"multicast pilot energy tau*q_up exceeds budget for user "
                f"{member - config.layout.starts[j]} of group {j}"
            )


def estimation_variance_unicast(tau, p_up, beta):
    """Per-antenna variance of the MMSE unicast channel estimate.

    vartheta = tau * p_up * beta**2 / (1 + tau * p_up * beta).  Accepts scalars
    or broadcastable arrays.
    """
    x = np.multiply(tau, np.multiply(p_up, beta))
    return x * beta / (1.0 + x)


def estimation_variance_multicast(tau, q_up, eta):
    """Per-user and composite estimate variances for one multicast group.

    Returns ``(xi, gamma)`` where ``xi[k]`` is the per-user estimate variance
    and ``gamma`` the variance of the composite-channel estimate.
    """
    q = np.asarray(q_up, dtype=float)
    e = np.asarray(eta, dtype=float)
    if q.shape != e.shape:
        raise ValueError("q_up and eta must have matching lengths")
    s = float(np.sum(tau * q * e))
    xi = tau * q * e**2 / (1.0 + s)
    gamma = s * s / (1.0 + s)
    return xi, gamma


def member_estimation_variances(tau, q_up, eta, layout):
    """``(xi, s)`` over the last axis of ``q_up``, members in ``layout``
    order: s_j = sum_k tau q_jk eta_jk, xi_jk = tau q_jk eta_jk^2 / (1 + s_j).
    """
    tq = tau * q_up
    s = np.add.reduceat(tq * eta, layout.starts, axis=-1)
    return tq * eta**2 / (1.0 + s[..., layout.member_group]), s


def pilot_scaling(tau, q_up, eta):
    """Scalars c_k tying each per-user estimate to the composite estimate.

    c_k = sqrt(tau*q_k)*eta_k / sum_t tau*q_t*eta_t; all-zero pilot powers give
    all-zero scalings (the estimates collapse to zero anyway).
    """
    q = np.asarray(q_up, dtype=float)
    e = np.asarray(eta, dtype=float)
    s = float(np.sum(tau * q * e))
    if s == 0.0:
        return np.zeros_like(q)
    return np.sqrt(tau * q) * e / s


@dataclass
class EstimationStats:
    """Channel-estimate variances for every user and group."""

    vartheta: list
    xi: Grouped
    gamma: list

    @classmethod
    def from_allocation(
        cls, alloc: PowerAllocation, profile: LargeScaleProfile
    ) -> "EstimationStats":
        """vartheta per unicast user; per group j with s_j = sum_k tau q_jk
        eta_jk, xi_jk = tau q_jk eta_jk^2 / (1 + s_j) and
        gamma_j = s_j^2 / (1 + s_j)."""
        if len(alloc.p_up) != len(profile.beta) \
                or alloc.q_up.layout.sizes != profile.eta.layout.sizes:
            raise ValueError("the allocation and the profile cover different "
                             "users")
        tau = alloc.tau
        vartheta = estimation_variance_unicast(tau, alloc.p_up, profile.beta)
        layout = alloc.q_up.layout
        xi, s = member_estimation_variances(tau, alloc.q_up.flat,
                                            profile.eta.flat, layout)
        return cls(vartheta=vartheta.tolist(),
                   xi=Grouped(xi, layout), gamma=(s * s / (1.0 + s)).tolist())


@dataclass
class SpectralEfficiencies:
    """Per-user linear SINRs and spectral efficiencies (bit/s/Hz)."""

    sinr_unicast: list
    se_unicast: list
    sinr_multicast: Grouped
    se_multicast: Grouped


def sinr_se_unicast(
    config: SystemConfig,
    stats: EstimationStats,
    alloc: PowerAllocation,
    profile: LargeScaleProfile,
):
    """Per-unicast-user (sinr, se) under MRT.

    SINR_m = N * p_m * vartheta_m / (1 + beta_m * (P_un + P_mu)), and
    SE_m = (1 - tau/T) * log2(1 + SINR_m).
    """
    alloc.check_feasible(config)
    total = alloc.unicast_power + alloc.multicast_power
    p = np.asarray(alloc.p_dl)
    beta = np.asarray(profile.beta)
    vartheta = np.asarray(stats.vartheta)
    sinr = config.n_antennas * p * vartheta / (1.0 + beta * total)
    se = config.prelog(alloc.tau) * np.log2(1.0 + sinr)
    return sinr, se


def sinr_se_multicast(
    config: SystemConfig,
    stats: EstimationStats,
    alloc: PowerAllocation,
    profile: LargeScaleProfile,
):
    """Per-multicast-user (sinr, se) under MRT, grouped like ``profile.eta``.

    SINR_jk = N * q_j * xi_jk / (1 + eta_jk * (P_un + P_mu)).
    """
    alloc.check_feasible(config)
    total = alloc.unicast_power + alloc.multicast_power
    q_dl = np.asarray(alloc.q_dl)[config.layout.member_group]
    sinr = config.n_antennas * q_dl * stats.xi.flat \
        / (1.0 + profile.eta.flat * total)
    se = config.prelog(alloc.tau) * np.log2(1.0 + sinr)
    return Grouped(sinr, config.layout), Grouped(se, config.layout)


def evaluate(
    config: SystemConfig, alloc: PowerAllocation, profile: LargeScaleProfile
) -> SpectralEfficiencies:
    """Evaluate every user's SINR and SE for a full allocation."""
    stats = EstimationStats.from_allocation(alloc, profile)
    sinr_un, se_un = sinr_se_unicast(config, stats, alloc, profile)
    sinr_mu, se_mu = sinr_se_multicast(config, stats, alloc, profile)
    return SpectralEfficiencies(
        sinr_unicast=list(sinr_un),
        se_unicast=list(se_un),
        sinr_multicast=sinr_mu,
        se_multicast=se_mu,
    )
