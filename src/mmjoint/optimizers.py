"""Optimal power allocation: closed-form max-min fairness for the multicast
groups, exact water-filling for the weighted-sum unicast spectral efficiency,
the Pareto-boundary sweep that couples them through the shared power budget, a
convexity check of the swept boundary, and a brute-force grid oracle used to
validate the closed forms on tiny instances.

The solvers evaluate a whole array of power splits per call; ``solve_mmf`` and
``solve_wsse`` are its one-split case and ``pareto_sweep`` its full grid.  The
solutions from one call share their split-independent values (pilot powers,
upsilon, x_star, vartheta_star).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

import numpy as np

from .closed_form import (
    estimation_variance_multicast,
    estimation_variance_unicast,
)
from .scenario import Grouped, LargeScaleProfile, SystemConfig

LN2 = math.log(2.0)

# fewest boundary points check_convexity can judge (two consecutive slopes)
MIN_CONVEXITY_POINTS = 3

# boundary-point pairs check_convexity evaluates per block (at least one
# row of pairs), so its temporaries do not grow with the square of the points
_PAIR_BLOCK = 1 << 14


class OracleInstanceTooLarge(ValueError):
    """Brute-force oracle refused an instance that would not finish quickly."""


@dataclass
class MmfSolution:
    """Closed-form max-min-fairness solution for a fixed unicast power."""

    objective: float
    common_sinr: float
    q_dl: list
    q_up: Grouped
    tau: int
    upsilon: list
    x_star: Grouped


@dataclass
class WsseSolution:
    """Water-filling solution of the weighted-sum unicast SE problem."""

    objective: float
    p_dl: list
    p_up: list
    tau: int
    water_level_nu: float | None
    vartheta_star: list


@dataclass
class ParetoPoint:
    """One boundary point: a power split with both optimal objective values."""

    p_un: float
    p_mu: float
    o_mu: float
    o_un: float
    mmf: MmfSolution
    wsse: WsseSolution


@dataclass
class ConvexityReport:
    is_consistent: bool
    max_violation: float
    slope_violation: float
    dominance_violation: float


def _mmf_solutions(
    config: SystemConfig, profile: LargeScaleProfile, p_un: np.ndarray
) -> list[MmfSolution]:
    """Max-min-fair solutions for every unicast power in ``p_un``."""
    config.check_users("profile", len(profile.beta), profile.eta)
    P = config.total_dl_power
    N = config.n_antennas
    tau = config.n_pilots
    layout = config.layout

    eta = profile.eta.flat
    budgets = config.multicast_energy_budgets.flat
    upsilon = np.minimum.reduceat(budgets * eta**2 / (1.0 + eta * P),
                                  layout.starts)
    x_star = (1.0 + eta * P) / eta**2 * upsilon[layout.member_group]
    denom = P * config.n_multicast + np.sum(1.0 / upsilon) + np.sum(1.0 / eta)
    gain = 1.0 + np.add.reduceat(x_star * eta, layout.starts)
    q_per_sinr = gain / (N * upsilon)  # group downlink power per unit SINR

    common_sinr = N * (P - p_un) / denom
    objective = config.prelog(tau) * np.log2(1.0 + common_sinr)
    if not (np.isfinite(denom) and np.all(np.isfinite(q_per_sinr))):
        objective[:] = np.nan  # overflow (a huge P): no finite answer
    q_dl = np.outer(common_sinr, q_per_sinr)

    q_up = Grouped(x_star / tau, layout)
    upsilon = upsilon.tolist()
    x_star = Grouped(x_star, layout)
    # positional, in field order: the cheapest way to build many of them
    return list(map(MmfSolution, objective.tolist(), common_sinr.tolist(),
                    q_dl.tolist(), repeat(q_up), repeat(tau), repeat(upsilon),
                    repeat(x_star)))


def solve_mmf(
    config: SystemConfig, profile: LargeScaleProfile, p_un: float
) -> MmfSolution:
    """Maximize the minimum multicast SE for a fixed unicast power ``p_un``.

    The optimum puts tau = U + G, pilots at the per-group equalizing energies,
    and downlink powers that make every multicast user's SINR equal to the
    common value Gamma = N*P_mu / (P*sum(K_j) + sum(1/Upsilon_j)
    + sum_jk 1/eta_jk) with P_mu = P - p_un.
    """
    if not 0.0 <= p_un <= config.total_dl_power:
        raise ValueError("p_un must lie in [0, total_dl_power]")
    return _mmf_solutions(config, profile, np.array([p_un], dtype=float))[0]


def _wsse_solutions(
    config: SystemConfig, profile: LargeScaleProfile, p_mu: np.ndarray
) -> list[WsseSolution]:
    """Weighted-sum-SE solutions for every multicast power in ``p_mu``.

    User i gets max(0, alpha_i/(nu ln2) - f_i) over its floor f_i.  Sorted by
    decreasing alpha/f, the k-th user turns on when the unicast power reaches
    A_{k-1} f_k/alpha_k - F_{k-1} (A, F cumulative sums of alpha and f), so the
    active count k for a power t is one searchsorted and the water level is
    exactly nu = A_k / (ln2 (t + F_k)) (Palomar & Fonollosa, IEEE TSP 2005).
    """
    config.check_users("profile", len(profile.beta), profile.eta)
    P = config.total_dl_power
    tau = config.n_pilots

    energy = np.asarray(config.unicast_energy_budgets, dtype=float)
    beta = np.asarray(profile.beta, dtype=float)
    alpha = np.asarray(config.unicast_weights, dtype=float)
    vartheta = energy * beta**2 / (1.0 + energy * beta)
    floors = (1.0 + beta * P) / (config.n_antennas * vartheta)

    order = np.argsort(-alpha / floors, kind="stable")
    a_cum = np.concatenate(([0.0], np.cumsum(alpha[order])))
    f_cum = np.concatenate(([0.0], np.cumsum(floors[order])))
    # roundoff may put tied breakpoints an ulp out of order; the water level
    # is continuous at a breakpoint, so either active count is then right
    entry = a_cum[:-1] * floors[order] / alpha[order] - f_cum[:-1]

    target = P - p_mu
    k = np.searchsorted(entry, target)  # users whose breakpoint lies below
    nu = np.full(target.shape, np.inf)  # no unicast power: nobody is active
    on = k > 0
    nu[on] = a_cum[k[on]] / (LN2 * (target[on] + f_cum[k[on]]))
    p_dl = np.maximum(0.0, alpha / (nu[:, None] * LN2) - floors)

    sinr = config.n_antennas * p_dl * vartheta / (1.0 + beta * P)
    objective = config.prelog(tau) * np.sum(alpha * np.log2(1.0 + sinr), axis=1)
    if not np.all(np.isfinite(entry)):  # the floors or their sums overflow
        objective[:] = np.nan

    p_up = (energy / tau).tolist()
    vartheta = vartheta.tolist()
    # positional, as in _mmf_solutions; no water level where no unicast
    # user is active
    return list(map(WsseSolution, objective.tolist(), p_dl.tolist(),
                    repeat(p_up), repeat(tau), np.where(on, nu, None).tolist(),
                    repeat(vartheta)))


def solve_wsse(
    config: SystemConfig, profile: LargeScaleProfile, p_mu: float
) -> WsseSolution:
    """Maximize the weighted sum of unicast SEs for a fixed multicast power.

    tau = U + G, every user spends its full pilot energy budget, and the
    downlink powers water-fill against per-user floors (1 + beta*P)/(N*theta).
    """
    if not 0.0 <= p_mu <= config.total_dl_power:
        raise ValueError("p_mu must lie in [0, total_dl_power]")
    return _wsse_solutions(config, profile, np.array([p_mu], dtype=float))[0]


def pareto_sweep(
    config: SystemConfig, profile: LargeScaleProfile, n_points: int = 21
) -> list[ParetoPoint]:
    """Sweep the boundary P_un + P_mu = P over a uniform grid of power splits."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    P = config.total_dl_power
    p_un = np.linspace(0.0, 1.0, n_points) * P
    p_mu = P - p_un
    mmf = _mmf_solutions(config, profile, p_un)
    wsse = _wsse_solutions(config, profile, p_mu)
    objective = attrgetter("objective")
    return list(map(ParetoPoint, p_un.tolist(), p_mu.tolist(),
                    map(objective, mmf), map(objective, wsse), mmf, wsse))


def check_convexity(
    points: list[ParetoPoint], tol: float = 1e-9
) -> ConvexityReport:
    """Verify the swept boundary bounds a convex attainable region.

    Checks concavity of o_un as a function of o_mu (consecutive slopes must be
    non-increasing) and that midpoints of all boundary-point pairs are weakly
    dominated by the piecewise-linear boundary itself.  The O(n^2) pairs are
    evaluated in blocks of about ``_PAIR_BLOCK``, so memory stays O(block).
    """
    if len(points) < MIN_CONVEXITY_POINTS:
        raise ValueError(f"need at least {MIN_CONVEXITY_POINTS} points")
    p_un, o_mu, o_un = np.array(
        [(pt.p_un, pt.o_mu, pt.o_un) for pt in points]).T
    if np.any(np.diff(p_un) <= 0):
        raise ValueError("points must be sorted by strictly increasing p_un")
    if not (np.all(np.isfinite(o_mu)) and np.all(np.isfinite(o_un))):
        raise ValueError("boundary objective values must be finite")

    order = np.argsort(o_mu)
    x, y = o_mu[order], o_un[order]

    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("boundary o_mu values must be distinct")
    slopes = np.diff(y) / dx
    slope_violation = float(max(0.0, np.max(np.diff(slopes), initial=0.0)))

    # pairs (i, j) for rows i in [a, b) and columns j in [a, n), about
    # _PAIR_BLOCK of them per block; the pairs j <= i that this adds repeat
    # (j, i) exactly (addition commutes) or give exactly 0 (i == j: interp
    # at a knot returns its y)
    n = len(x)
    dominance_violation = 0.0
    a = 0
    while a < n - 1:
        b = min(n, a + max(1, _PAIR_BLOCK // (n - a)))
        mid_x = 0.5 * (x[a:b, None] + x[a:])
        mid_y = 0.5 * (y[a:b, None] + y[a:])
        dominance_violation = max(
            dominance_violation, float(np.max(mid_y - np.interp(mid_x, x, y)))
        )
        a = b

    max_violation = max(slope_violation, dominance_violation)
    return ConvexityReport(
        is_consistent=bool(max_violation <= tol),
        max_violation=max_violation,
        slope_violation=slope_violation,
        dominance_violation=dominance_violation,
    )


@dataclass
class OracleResult:
    objective: float
    tau: int
    dl_powers: list
    up_powers: list


def _simplex_grid(n_vars: int, steps: int) -> np.ndarray:
    """All fractions (t_1..t_n) on a grid with sum t_i = 1, step 1/steps."""
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


def brute_force_oracle(
    config: SystemConfig,
    profile: LargeScaleProfile,
    objective: str,
    grid_steps: int,
    *,
    p_un: float = 0.0,
    p_mu: float = 0.0,
    pilot_fractions=(0.25, 0.5, 0.75, 1.0),
    tau_span: int = 4,
) -> OracleResult:
    """Exhaustive grid search over the feasible set; test-only validation tool.

    ``objective`` is "mmf" (min multicast SE, unicast power fixed at ``p_un``)
    or "wsse" (weighted-sum unicast SE, multicast power fixed at ``p_mu``).
    Downlink powers are searched on the simplex where the power constraint
    binds (uniformly scaling all downlink powers up improves every SINR, so
    the optimum always exhausts the budget); pilot powers on a fractional grid
    of each energy box; tau over {U+G, ..., U+G+tau_span} capped at T.
    """
    if objective not in ("mmf", "wsse"):
        raise ValueError("objective must be 'mmf' or 'wsse'")
    if config.n_unicast > 3 or config.n_groups > 2 or max(config.group_sizes) > 2:
        raise OracleInstanceTooLarge("oracle instances must have U<=3, G<=2, K_g<=2")
    if not 1 <= grid_steps <= 1000:
        raise OracleInstanceTooLarge("grid_steps must be in [1, 1000]")

    P = config.total_dl_power
    taus = range(config.n_pilots, min(config.coherence_symbols,
                                      config.n_pilots + tau_span) + 1)

    if objective == "mmf":
        return _oracle_mmf(config, profile, grid_steps, P - p_un, taus,
                           pilot_fractions)
    return _oracle_wsse(config, profile, grid_steps, P - p_mu, taus,
                        pilot_fractions)


def _oracle_mmf(config, profile, grid_steps, p_mu, taus, pilot_fractions):
    P = config.total_dl_power
    eta = [np.asarray(g, dtype=float) for g in profile.eta]
    budgets = [np.asarray(g, dtype=float) for g in config.multicast_energy_budgets]
    n_users = [len(g) for g in eta]
    splits = _simplex_grid(config.n_groups, grid_steps)  # (n_pts, G)

    best = OracleResult(-math.inf, 0, [], [])
    for tau in taus:
        prelog = config.prelog(tau)
        # one fraction per multicast user, all combinations
        for fracs in itertools.product(pilot_fractions, repeat=sum(n_users)):
            it = iter(fracs)
            q_up = [np.array([next(it) for _ in range(k)]) * bud / tau
                    for k, bud in zip(n_users, budgets)]
            # min over each group's users of xi / (1 + eta * P): the group's
            # worst per-power SINR coefficient
            coeffs = []
            for q_g, eta_g in zip(q_up, eta):
                xi, _ = estimation_variance_multicast(tau, q_g, eta_g)
                coeffs.append(np.min(xi / (1.0 + eta_g * P)))
            coeffs = np.asarray(coeffs)
            # min SINR over groups for every downlink split at once
            min_sinr = np.min(
                config.n_antennas * splits * p_mu * coeffs, axis=1
            )
            idx = int(np.argmax(min_sinr))
            obj = prelog * math.log2(1.0 + float(min_sinr[idx]))
            if obj > best.objective:
                best = OracleResult(
                    objective=obj,
                    tau=tau,
                    dl_powers=list(splits[idx] * p_mu),
                    up_powers=[list(q) for q in q_up],
                )
    return best


def _oracle_wsse(config, profile, grid_steps, p_un, taus, pilot_fractions):
    P = config.total_dl_power
    beta = np.asarray(profile.beta, dtype=float)
    alpha = np.asarray(config.unicast_weights, dtype=float)
    energy = np.asarray(config.unicast_energy_budgets, dtype=float)
    splits = _simplex_grid(config.n_unicast, grid_steps)  # (n_pts, U)

    best = OracleResult(-math.inf, 0, [], [])
    for tau in taus:
        prelog = config.prelog(tau)
        for fracs in itertools.product(pilot_fractions, repeat=config.n_unicast):
            p_up = np.asarray(fracs) * energy / tau
            vartheta = estimation_variance_unicast(tau, p_up, beta)
            gain = config.n_antennas * vartheta / (1.0 + beta * P)
            obj_all = prelog * np.sum(
                alpha * np.log2(1.0 + splits * p_un * gain), axis=1
            )
            idx = int(np.argmax(obj_all))
            if obj_all[idx] > best.objective:
                best = OracleResult(
                    objective=float(obj_all[idx]),
                    tau=tau,
                    dl_powers=list(splits[idx] * p_un),
                    up_powers=list(p_up),
                )
    return best
