"""Optimal power allocation: closed-form max-min fairness for the multicast
groups, exact water-filling for the weighted-sum unicast spectral efficiency,
the Pareto-boundary sweep that couples them through the shared power budget, a
convexity check of the swept boundary, and a brute-force grid oracle used to
validate the closed forms on tiny instances.

The array core: ``mmf_arrays`` and ``wsse_arrays`` evaluate a whole array of
power splits in one pass and return one array per per-split quantity (the
objectives, the common SINR Gamma, the downlink powers ``q_dl``/``p_dl``, the
water level nu) next to the split-independent values (pilot powers, upsilon,
x_star, vartheta_star), which are computed once.  ``pareto_sweep`` runs
them over a uniform grid of splits and returns the boundary as a
``ParetoBoundary`` of those arrays; ``solve_mmf`` and ``solve_wsse`` are their
one-split case, returned as one ``MmfSolution`` or ``WsseSolution``.
``check_convexity`` checks a boundary given as the arrays ``(p_un, o_mu,
o_un)``: its midpoint test visits O(n) pairs when a rounding-aware slope
certificate shows the boundary concave, and all n(n-1)/2 pairs otherwise.
The CLI's ``pareto`` runs ``pareto_sweep`` and ``check_convexity`` for each
antenna count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_form import (
    RAISE_FP_ERRORS,
    estimation_variance_unicast,
    member_estimation_variances,
    mrt_sinr,
)
from .scenario import Grouped, LargeScaleProfile, SystemConfig

LN2 = math.log(2.0)

# fewest boundary points check_convexity can judge (two consecutive slopes)
MIN_CONVEXITY_POINTS = 3
# largest violation a boundary may show and still read as convex
CONVEXITY_TOL = 1e-9

# boundary-point pairs check_convexity evaluates per chunk (at least one
# offset of every open row), so its temporaries do not grow with the square of
# the points
_PAIR_BLOCK = 1 << 14

# the brute-force oracle's pilot lengths U+G .. U+G+ORACLE_TAU_SPAN (capped
# at T) and pilot energies, as fractions of each user's budget
ORACLE_TAU_SPAN = 4
ORACLE_PILOT_FRACTIONS = np.array([0.25, 0.5, 0.75, 1.0])


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
class ConvexityReport:
    is_consistent: bool
    max_violation: float
    slope_violation: float
    dominance_violation: float


@dataclass
class MmfArrays:
    """Max-min-fair solutions for an array of n unicast powers.

    ``objective``, ``common_sinr`` (n,) and ``q_dl`` (n, G) hold one row per
    split; the other fields do not depend on the split.
    """

    objective: np.ndarray
    common_sinr: np.ndarray
    q_dl: np.ndarray
    q_up: Grouped
    tau: int
    upsilon: np.ndarray
    x_star: Grouped


@RAISE_FP_ERRORS
def mmf_arrays(
    config: SystemConfig, profile: LargeScaleProfile, p_un: np.ndarray
) -> MmfArrays:
    """Max-min-fair solutions for every unicast power in ``p_un``; raises
    ``FloatingPointError`` where a value overflows (a huge P)."""
    config.check_users("profile", len(profile.beta), profile.eta)
    P = config.total_dl_power
    N = config.n_antennas
    tau = config.n_pilots
    layout = config.layout

    eta = profile.eta.flat
    budgets = config.multicast_energy_budgets.flat
    upsilon = np.minimum.reduceat(mrt_sinr(1, budgets, eta**2, eta, P),
                                  layout.starts)
    # upsilon / mrt_sinr(1, 1.0, eta**2, eta, P), written out for its rounding
    x_star = (1.0 + eta * P) / eta**2 * upsilon[layout.member_group]
    # P*K + sum 1/eta is sum_jk 1/mrt_sinr(1, 1.0, eta, eta, P), likewise
    denom = P * config.n_multicast + np.sum(1 / upsilon) + np.sum(1 / eta)
    gain = 1.0 + np.add.reduceat(x_star * eta, layout.starts)
    q_per_sinr = gain / (N * upsilon)  # group power per unit SINR
    common_sinr = N * (P - p_un) / denom
    q_dl = np.outer(common_sinr, q_per_sinr)

    objective = config.prelog(tau) * np.log2(1.0 + common_sinr)
    return MmfArrays(objective, common_sinr, q_dl,
                     Grouped(x_star / tau, layout), tau, upsilon,
                     Grouped(x_star, layout))


def solve_mmf(
    config: SystemConfig, profile: LargeScaleProfile, p_un: float
) -> MmfSolution:
    """Maximize the minimum multicast SE for a fixed unicast power ``p_un``.

    The optimum puts tau = U + G, pilots at the per-group equalizing energies,
    and downlink powers that make every multicast user's SINR equal to the
    common value Gamma = N*P_mu / (P*sum(K_j) + sum(1/Upsilon_j)
    + sum_jk 1/eta_jk) with P_mu = P - p_un.  Raises ``FloatingPointError``
    as ``mmf_arrays`` does.
    """
    if not 0.0 <= p_un <= config.total_dl_power:
        raise ValueError("p_un must lie in [0, total_dl_power]")
    core = mmf_arrays(config, profile, np.array([p_un], dtype=float))
    return MmfSolution(core.objective.item(), core.common_sinr.item(),
                       core.q_dl[0].tolist(), core.q_up, core.tau,
                       core.upsilon.tolist(), core.x_star)


@dataclass
class WsseArrays:
    """Weighted-sum-SE solutions for an array of n multicast powers.

    ``objective`` (n,), ``p_dl`` (n, U) and the water level ``nu`` (n,;
    infinite where no unicast user is active) hold one row per split; the
    other fields do not depend on the split.
    """

    objective: np.ndarray
    p_dl: np.ndarray
    nu: np.ndarray
    p_up: np.ndarray
    tau: int
    vartheta_star: np.ndarray


@RAISE_FP_ERRORS
def wsse_arrays(
    config: SystemConfig, profile: LargeScaleProfile, p_mu: np.ndarray
) -> WsseArrays:
    """Weighted-sum-SE solutions for every multicast power in ``p_mu``.

    User i gets max(0, alpha_i/(nu ln2) - f_i) over its floor f_i.  Sorted by
    decreasing alpha/f, the k-th user turns on when the unicast power reaches
    A_{k-1} f_k/alpha_k - F_{k-1} (A, F cumulative sums of alpha and f), so the
    active count k for a power t is one searchsorted and the water level is
    exactly nu = A_k / (ln2 (t + F_k)) (Palomar & Fonollosa, IEEE TSP 2005).
    Raises ``FloatingPointError`` where a value overflows (a huge P).
    """
    config.check_users("profile", len(profile.beta), profile.eta)
    P = config.total_dl_power
    tau = config.n_pilots

    energy = np.asarray(config.unicast_energy_budgets, dtype=float)
    beta = np.asarray(profile.beta, dtype=float)
    alpha = np.asarray(config.unicast_weights, dtype=float)
    vartheta = energy * beta**2 / (1.0 + energy * beta)
    # 1 / mrt_sinr(N, 1.0, vartheta, beta, P), written out for its rounding
    floors = (1.0 + beta * P) / (config.n_antennas * vartheta)
    order = np.argsort(-alpha / floors, kind="stable")
    a_cum = np.concatenate(([0.0], np.cumsum(alpha[order])))
    f_cum = np.concatenate(([0.0], np.cumsum(floors[order])))
    # roundoff may put tied breakpoints an ulp out of order; the water
    # level is continuous there, so either active count is then right
    entry = a_cum[:-1] * floors[order] / alpha[order] - f_cum[:-1]

    target = P - p_mu
    k = np.searchsorted(entry, target)  # users whose breakpoint is below
    nu = np.full(target.shape, np.inf)  # no unicast power: none active
    on = k > 0
    nu[on] = a_cum[k[on]] / (LN2 * (target[on] + f_cum[k[on]]))
    p_dl = np.maximum(0.0, alpha / (nu[:, None] * LN2) - floors)

    sinr = mrt_sinr(config.n_antennas, p_dl, vartheta, beta, P)
    objective = config.prelog(tau) * np.sum(alpha * np.log2(1.0 + sinr), axis=1)
    return WsseArrays(objective, p_dl, nu, energy / tau, tau, vartheta)


def solve_wsse(
    config: SystemConfig, profile: LargeScaleProfile, p_mu: float
) -> WsseSolution:
    """Maximize the weighted sum of unicast SEs for a fixed multicast power.

    tau = U + G, every user spends its full pilot energy budget, and the
    downlink powers water-fill against per-user floors (1 + beta*P)/(N*theta).
    Raises ``FloatingPointError`` as ``wsse_arrays`` does.
    """
    if not 0.0 <= p_mu <= config.total_dl_power:
        raise ValueError("p_mu must lie in [0, total_dl_power]")
    core = wsse_arrays(config, profile, np.array([p_mu], dtype=float))
    nu = core.nu.item()  # no water level where no unicast user is active
    return WsseSolution(core.objective.item(), core.p_dl[0].tolist(),
                        core.p_up.tolist(), core.tau,
                        nu if math.isfinite(nu) else None,
                        core.vartheta_star.tolist())


class ParetoBoundary(NamedTuple):
    """The swept boundary: the splits ``p_un`` and ``p_mu`` (n,), p_un
    increasing from 0 to P, and both solutions on them.  The objectives
    o_mu and o_un are ``mmf.objective`` and ``wsse.objective``."""

    p_un: np.ndarray
    p_mu: np.ndarray
    mmf: MmfArrays
    wsse: WsseArrays


def pareto_sweep(
    config: SystemConfig, profile: LargeScaleProfile, n_points: int = 21
) -> ParetoBoundary:
    """Sweep the boundary P_un + P_mu = P over a uniform grid of ``n_points``
    power splits; raises ``FloatingPointError`` as ``mmf_arrays`` and
    ``wsse_arrays`` do."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    P = config.total_dl_power
    p_un = np.linspace(0.0, 1.0, n_points) * P
    p_mu = P - p_un
    return ParetoBoundary(p_un, p_mu, mmf_arrays(config, profile, p_un),
                          wsse_arrays(config, profile, p_mu))


def check_convexity(
    p_un: np.ndarray, o_mu: np.ndarray, o_un: np.ndarray
) -> ConvexityReport:
    """Verify the boundary points (p_un, o_mu, o_un) bound a convex
    attainable region.

    Checks concavity of o_un as a function of o_mu (consecutive slopes must be
    non-increasing) and that midpoints of all boundary-point pairs are weakly
    dominated by the piecewise-linear boundary itself.  With the points sorted
    by o_mu as knots (x, y), pair (i, j) computes
    ``0.5*(y_i + y_j) - np.interp(0.5*(x_i + x_j), x, y)`` and the dominance
    violation is the largest of these and 0.

    Pairs are visited by offset, (i, i + d) for d = 1, 2, ... over the rows
    i still open, at least one offset and otherwise about ``_PAIR_BLOCK``
    pairs at a time, so memory stays O(block).  A row retires once one of its
    values is below -2E; its later pairs cannot raise the maximum:

    - certificate: if every ``np.diff(slopes)[k]`` is below
      -(4*eps*(|s_k| + |s_k+1|) + tiny) and max|x|, max|y| stay below an
      eighth of the largest float (no sum overflows), the exact interpolant
      f through the float knots is concave (the computed slopes are within
      about 1.5*eps of the exact ones);
    - for a concave f the gap g(i, j) = f((x_i + x_j)/2) - (y_i + y_j)/2
      does not decrease as j moves away from i;
    - E = 8*eps*(max|y| + max|slope|*max|x|) + tiny*(1 + max|slope| +
      max|x|) bounds |computed value + g| for any pair: the rounded
      midpoints, the arithmetic of ``np.interp`` and the final subtraction
      need about 2*eps*max|y| + 5.5*eps*max|slope|*max|x|, and the tiny
      (smallest normal) terms cover underflow;
    - so once a value is below -2E, every later pair of its row computes to
      a value below 0, and the maximum starts at 0.

    Inputs without the certificate take E = inf and visit every pair j > i
    once, which is O(n^2); certified real sweeps retire every row within the
    second chunk, so they visit O(n) pairs.  The report is the same as
    evaluating every pair.
    """
    if len(p_un) < MIN_CONVEXITY_POINTS:
        raise ValueError(f"need at least {MIN_CONVEXITY_POINTS} points")
    if not all(np.all(np.isfinite(v)) for v in (p_un, o_mu, o_un)):
        raise ValueError("boundary p_un, o_mu and o_un values must be finite")
    if np.any(np.diff(p_un) <= 0):
        raise ValueError("points must be sorted by strictly increasing p_un")

    order = np.argsort(o_mu)
    x, y = o_mu[order], o_un[order]

    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("boundary o_mu values must be distinct")
    slopes = np.diff(y) / dx
    curvature = np.diff(slopes)
    slope_violation = float(max(0.0, np.max(curvature, initial=0.0)))

    # Python floats, so that E overflows to inf without a warning
    eps, tiny, huge = (sys.float_info.epsilon, sys.float_info.min,
                       sys.float_info.max)
    s_abs = np.abs(slopes)
    x_max, y_max, s_max = (float(np.max(v))
                           for v in (np.abs(x), np.abs(y), s_abs))
    certified = bool(max(x_max, y_max) < huge / 8.0 and np.all(
        curvature < -(4.0 * eps * (s_abs[:-1] + s_abs[1:]) + tiny)))
    bound = (8.0 * eps * (y_max + s_max * x_max)
             + tiny * (1.0 + s_max + x_max)) if certified else math.inf

    n = len(x)
    dominance_violation = 0.0
    is_open, rows, d = np.ones(n - 1, dtype=bool), np.arange(n - 1), 1
    while rows.size:
        # offsets [d, d + k) of every open row, k = d unless that passes
        # _PAIR_BLOCK pairs
        k = max(1, min(d, _PAIR_BLOCK // rows.size))
        i = np.repeat(rows, k)
        j = i + np.tile(np.arange(d, d + k), rows.size)
        keep = j < n
        i, j = i[keep], j[keep]
        gap = (0.5 * (y.take(i) + y.take(j))
               - np.interp(0.5 * (x.take(i) + x.take(j)), x, y))
        dominance_violation = max(dominance_violation, float(np.max(gap)))
        d += k
        is_open[i[gap < -2.0 * bound]] = False
        rows = rows[is_open[rows] & (rows < n - d)]

    max_violation = max(slope_violation, dominance_violation)
    return ConvexityReport(
        is_consistent=bool(max_violation <= CONVEXITY_TOL),
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
    # rows (i, j - i, steps - j) for i = 0..steps, then j = i..steps
    i, j = np.triu_indices(steps + 1)
    return np.column_stack([i, j - i, steps - j]) / steps


def brute_force_oracle(
    config: SystemConfig,
    profile: LargeScaleProfile,
    objective: str,
    grid_steps: int,
    *,
    p_un: float = 0.0,
    p_mu: float = 0.0,
) -> OracleResult:
    """Exhaustive grid search over the feasible set; test-only validation tool.

    ``objective`` is "mmf" (min multicast SE, unicast power fixed at ``p_un``)
    or "wsse" (weighted-sum unicast SE, multicast power fixed at ``p_mu``).
    Downlink powers are searched on the simplex where the power constraint
    binds (uniformly scaling all downlink powers up improves every SINR, so
    the optimum always exhausts the budget), pilot energies and tau over the
    ORACLE_* sets.  The first maximum over (tau, pilot combination, split)
    is returned.
    """
    if objective not in ("mmf", "wsse"):
        raise ValueError("objective must be 'mmf' or 'wsse'")
    if config.n_unicast > 3 or config.n_groups > 2 or max(config.group_sizes) > 2:
        raise OracleInstanceTooLarge("oracle instances must have U<=3, G<=2, K_g<=2")
    if not 1 <= grid_steps <= 1000:
        raise OracleInstanceTooLarge("grid_steps must be in [1, 1000]")

    P = config.total_dl_power
    taus = range(config.n_pilots, min(config.coherence_symbols,
                                      config.n_pilots + ORACLE_TAU_SPAN) + 1)
    if objective == "mmf":
        return _oracle_mmf(config, profile, grid_steps, P - p_un, taus)
    return _oracle_wsse(config, profile, grid_steps, P - p_mu, taus)


def _oracle_mmf(config, profile, grid_steps, p_mu, taus):
    layout = config.layout
    eta = profile.eta.flat
    # every combination of one fraction per member, the first member's
    # varying slowest: (fractions ** members, members)
    combos = np.indices((len(ORACLE_PILOT_FRACTIONS),) * len(eta))
    energy = ORACLE_PILOT_FRACTIONS[combos.reshape(len(eta), -1).T] \
        * config.multicast_energy_budgets.flat
    splits = _simplex_grid(config.n_groups, grid_steps)  # (n_pts, G)
    dl_per_coeff = config.n_antennas * splits * p_mu

    best = OracleResult(-math.inf, 0, [], [])
    for tau in taus:
        q_up = energy / tau
        xi, _ = member_estimation_variances(tau, q_up, eta, layout)
        # each group's worst per-power SINR coefficient, per combination
        coeffs = np.minimum.reduceat(mrt_sinr(
            1, 1.0, xi, eta, config.total_dl_power), layout.starts, axis=1)
        # min SINR over groups for every (combination, downlink split)
        min_sinr = np.min(dl_per_coeff * coeffs[:, None, :], axis=2)
        # math.log2, not numpy's log2, which differs from it in the last bit
        # on some values: the first maximum then matches the tests' loop oracle
        obj = config.prelog(tau) * np.fromiter(
            map(math.log2, 1.0 + min_sinr.max(axis=1)), float)
        c = int(np.argmax(obj))
        if obj[c] > best.objective:
            idx = np.argmax(min_sinr[c])
            best = OracleResult(float(obj[c]), tau, list(splits[idx] * p_mu),
                                Grouped(q_up[c], layout).tolist())
    return best


def _oracle_wsse(config, profile, grid_steps, p_un, taus):
    beta = np.asarray(profile.beta, dtype=float)
    alpha = np.asarray(config.unicast_weights, dtype=float)
    energy = np.asarray(config.unicast_energy_budgets, dtype=float)
    dl_powers = _simplex_grid(config.n_unicast, grid_steps) * p_un  # (pts, U)

    best = OracleResult(-math.inf, 0, [], [])
    for tau in taus:
        # row f: every user's pilot power at fraction f of its budget
        p_up = ORACLE_PILOT_FRACTIONS[:, None] * energy / tau
        gain = mrt_sinr(config.n_antennas, 1.0, estimation_variance_unicast(
            tau, p_up, beta), beta, config.total_dl_power)
        # user i's term depends only on its own fraction, so at every split
        # the best combination keeps each user's first best fraction (float
        # addition is monotone, so no other combination sums higher)
        terms = np.full(dl_powers.shape, -math.inf)
        kept = np.zeros(dl_powers.shape, dtype=np.int8)
        for f, g in enumerate(gain):
            term = alpha * np.log2(1.0 + dl_powers * g)
            better = term > terms
            terms[better] = term[better]
            kept[better] = f
        obj_all = config.prelog(tau) * np.sum(terms, axis=1)
        idx = int(np.argmax(obj_all))
        if obj_all[idx] > best.objective:
            best = OracleResult(float(obj_all[idx]), tau, list(dl_powers[idx]),
                                list(p_up[kept[idx], np.arange(len(energy))]))
    return best
