"""Cell scenario: system constants, user placement, large-scale fading and unit conversion.

All powers and energies used by the rest of the library are noise-normalized:
a transmit power q relates to its physical value by q = q_watts / (sigma2 * W),
where sigma2 is the noise power spectral density in W/Hz and W the bandwidth.
One symbol is taken to occupy 1/W seconds, so a pilot energy budget Ebar (joule)
normalizes to E = Ebar / sigma2 and a tau-symbol pilot satisfies tau * q <= E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# default propagation model constants (overridable everywhere they appear)
PATHLOSS_EXPONENT = 3.76
ATTENUATION_CONST = 10.0 ** -3.5
CELL_RADIUS_M = 500.0
EXCLUSION_RADIUS_M = 35.0


@dataclass
class SystemConfig:
    """Static parameters of the cell.

    Attributes
    ----------
    n_antennas : int
        Number of base-station antennas.
    n_unicast : int
        Number of unicast user terminals.
    n_groups : int
        Number of multicast groups.
    group_sizes : list[int]
        Users per multicast group, length ``n_groups``.
    coherence_symbols : int
        Symbols per coherence interval.
    total_dl_power : float
        Total downlink power budget, noise-normalized.  Zero is allowed as a
        documented degenerate case (solvers return all-zero allocations).
    unicast_energy_budgets : list[float]
        Per-unicast-user pilot energy budget, noise-normalized.
    multicast_energy_budgets : list[list[float]]
        Per-group, per-user pilot energy budgets, noise-normalized.
    unicast_weights : list[float]
        Weights of the unicast spectral efficiencies (defaults to all ones).
    pilot_length : int
        Pilot length in symbols; defaults to ``n_unicast + n_groups``.
    """

    n_antennas: int
    n_unicast: int
    n_groups: int
    group_sizes: list
    coherence_symbols: int
    total_dl_power: float
    unicast_energy_budgets: list
    multicast_energy_budgets: list
    unicast_weights: list | None = None
    pilot_length: int | None = None

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be a positive integer")
        if self.n_unicast < 1:
            raise ValueError("n_unicast must be a positive integer")
        if self.n_groups < 1:
            raise ValueError("n_groups must be a positive integer")
        self.group_sizes = [int(k) for k in self.group_sizes]
        if len(self.group_sizes) != self.n_groups:
            raise ValueError("group_sizes must have length n_groups")
        if any(k < 1 for k in self.group_sizes):
            raise ValueError("group_sizes entries must be positive")
        if self.coherence_symbols < 1:
            raise ValueError("coherence_symbols must be a positive integer")
        if not 0 <= self.total_dl_power < math.inf:
            raise ValueError("total_dl_power must be finite and nonnegative")

        self.unicast_energy_budgets = [float(e) for e in self.unicast_energy_budgets]
        if len(self.unicast_energy_budgets) != self.n_unicast:
            raise ValueError("unicast_energy_budgets must have length n_unicast")
        if not all(0 < e < math.inf for e in self.unicast_energy_budgets):
            raise ValueError("unicast_energy_budgets must be finite and strictly "
                             "positive")

        self.multicast_energy_budgets = [
            [float(e) for e in grp] for grp in self.multicast_energy_budgets
        ]
        if [len(g) for g in self.multicast_energy_budgets] != self.group_sizes:
            raise ValueError("multicast_energy_budgets must match group_sizes")
        if not all(0 < e < math.inf for g in self.multicast_energy_budgets
                   for e in g):
            raise ValueError("multicast_energy_budgets must be finite and "
                             "strictly positive")

        if self.unicast_weights is None:
            self.unicast_weights = [1.0] * self.n_unicast
        self.unicast_weights = [float(w) for w in self.unicast_weights]
        if len(self.unicast_weights) != self.n_unicast:
            raise ValueError("unicast_weights must have length n_unicast")
        if not all(0 < w < math.inf for w in self.unicast_weights):
            raise ValueError("unicast_weights must be finite and strictly positive")

        if self.pilot_length is None:
            self.pilot_length = self.n_pilots
        self.pilot_length = int(self.pilot_length)
        if not (self.n_pilots <= self.pilot_length <= self.coherence_symbols):
            raise ValueError(
                "pilot_length must satisfy n_unicast + n_groups <= pilot_length "
                "<= coherence_symbols"
            )

    @property
    def n_pilots(self) -> int:
        """Number of orthogonal pilots needed (one per unicast user, one per group)."""
        return self.n_unicast + self.n_groups

    @property
    def n_multicast(self) -> int:
        return sum(self.group_sizes)

    def prelog(self, tau: int | None = None) -> float:
        """Pilot-overhead prelog factor 1 - tau/T."""
        if tau is None:
            tau = self.pilot_length
        return 1.0 - tau / self.coherence_symbols


@dataclass
class CellGeometry:
    """Distances (meters) between the base station and every user."""

    unicast_distances: list
    multicast_distances: list
    cell_radius: float = CELL_RADIUS_M
    exclusion_radius: float = EXCLUSION_RADIUS_M

    def __post_init__(self):
        self.unicast_distances = [float(x) for x in self.unicast_distances]
        self.multicast_distances = [
            [float(x) for x in grp] for grp in self.multicast_distances
        ]
        lo, hi = self.exclusion_radius, self.cell_radius
        all_d = self.unicast_distances + [x for g in self.multicast_distances for x in g]
        if any(not (lo <= x <= hi) for x in all_d):
            raise ValueError(
                "all distances must lie in [exclusion_radius, cell_radius]"
            )


@dataclass
class LargeScaleProfile:
    """Per-user large-scale fading coefficients (linear scale)."""

    beta: list
    eta: list

    def __post_init__(self):
        self.beta = [float(b) for b in self.beta]
        self.eta = [[float(e) for e in grp] for grp in self.eta]
        all_c = self.beta + [e for g in self.eta for e in g]
        if any(not (c > 0 and math.isfinite(c)) for c in all_c):
            raise ValueError("all fading coefficients must be positive and finite")

    @classmethod
    def from_geometry(
        cls,
        geometry: CellGeometry,
        pathloss_exponent: float = PATHLOSS_EXPONENT,
        attenuation_const: float = ATTENUATION_CONST,
    ) -> "LargeScaleProfile":
        beta = [
            large_scale_fading(x, pathloss_exponent, attenuation_const)
            for x in geometry.unicast_distances
        ]
        eta = [
            [large_scale_fading(x, pathloss_exponent, attenuation_const) for x in grp]
            for grp in geometry.multicast_distances
        ]
        return cls(beta=beta, eta=eta)


@dataclass
class PhysicalUnits:
    """Physical-unit inputs that get converted to noise-normalized quantities."""

    bandwidth_hz: float
    noise_psd_dbm_per_hz: float
    dl_power_watts: float
    pilot_energy_joules: float

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.dl_power_watts <= 0:
            raise ValueError("dl_power_watts must be positive")
        if self.pilot_energy_joules <= 0:
            raise ValueError("pilot_energy_joules must be positive")


def dbm_per_hz_to_watts_per_hz(value_dbm: float) -> float:
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def normalize_units(phys: PhysicalUnits) -> tuple[float, float]:
    """Convert physical power/energy to their noise-normalized counterparts.

    Returns ``(total_dl_power, pilot_energy_budget)`` where the power is
    P = Pbar / (W * sigma2) and, with one symbol lasting 1/W seconds, the
    per-pilot energy budget is E = Ebar / sigma2 (both dimensionless).
    """
    sigma2 = dbm_per_hz_to_watts_per_hz(phys.noise_psd_dbm_per_hz)
    total_dl_power = phys.dl_power_watts / (phys.bandwidth_hz * sigma2)
    energy_budget = phys.pilot_energy_joules / sigma2
    return total_dl_power, energy_budget


def large_scale_fading(
    distance: float,
    pathloss_exponent: float = PATHLOSS_EXPONENT,
    attenuation_const: float = ATTENUATION_CONST,
) -> float:
    """Distance-based power-law fading coefficient d_bar / x**nu."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    return attenuation_const / distance ** pathloss_exponent


def _annulus_radii(rng: np.random.Generator, n: int, r_inner: float, r_outer: float):
    # uniform over the annulus *area*: r = sqrt(u*(R^2 - r0^2) + r0^2)
    u = rng.random(n)
    return np.sqrt(u * (r_outer**2 - r_inner**2) + r_inner**2)


def place_users(
    config: SystemConfig,
    cell_radius: float = CELL_RADIUS_M,
    exclusion_radius: float = EXCLUSION_RADIUS_M,
    seed: int = 0,
) -> CellGeometry:
    """Drop all users uniformly over the annulus between the two radii.

    Deterministic for a fixed seed.  Only distances are returned; angles are
    irrelevant to the isotropic fading model.
    """
    if not exclusion_radius < cell_radius:
        raise ValueError("exclusion_radius must be smaller than cell_radius")
    rng = np.random.default_rng(seed)
    unicast = _annulus_radii(rng, config.n_unicast, exclusion_radius, cell_radius)
    multicast = [
        _annulus_radii(rng, k, exclusion_radius, cell_radius)
        for k in config.group_sizes
    ]
    return CellGeometry(
        unicast_distances=list(unicast),
        multicast_distances=[list(m) for m in multicast],
        cell_radius=cell_radius,
        exclusion_radius=exclusion_radius,
    )
