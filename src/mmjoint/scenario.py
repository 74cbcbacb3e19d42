"""Cell scenario: system constants, user placement, large-scale fading and unit conversion.

All powers and energies used by the rest of the library are noise-normalized:
a transmit power q relates to its physical value by q = q_watts / (sigma2 * W),
where sigma2 is the noise power spectral density in W/Hz and W the bandwidth.
One symbol is taken to occupy 1/W seconds, so a pilot energy budget Ebar (joule)
normalizes to E = Ebar / sigma2 and a tau-symbol pilot satisfies tau * q <= E.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

# default propagation model constants (overridable everywhere they appear)
PATHLOSS_EXPONENT = 3.76
ATTENUATION_CONST = 10.0 ** -3.5
CELL_RADIUS_M = 500.0
EXCLUSION_RADIUS_M = 35.0


class GroupLayout:
    """Member order of the multicast groups: groups in order, then members.

    Per-group sums and minima are one ``reduceat`` at ``starts`` (each group's
    first member); indexing a per-group array with ``member_group`` (each
    member's group) broadcasts it to the members.
    """

    def __init__(self, sizes):
        self.sizes = tuple(int(k) for k in sizes)
        counts = np.array(self.sizes, dtype=np.intp)
        self.starts = np.cumsum(counts) - counts
        self.member_group = np.repeat(np.arange(len(counts)), counts)


class Grouped:
    """Per-member values held as one flat float64 array in ``layout`` order.

    Built from nested sequences, another ``Grouped``, or a flat array and its
    layout.  ``x[j]`` is a view of group j, so ``x[j][k]`` and iteration over
    the groups read as for a list of lists.
    """

    __slots__ = ("flat", "layout")

    def __init__(self, values, layout: GroupLayout | None = None):
        if isinstance(values, Grouped):
            flat, sizes, layout = values.flat, values.layout.sizes, \
                layout or values.layout
        elif isinstance(values, np.ndarray) and values.ndim == 1:
            flat, sizes = values, layout.sizes
        else:
            sizes = tuple(len(g) for g in values)
            flat = np.fromiter(itertools.chain.from_iterable(values),
                               dtype=float, count=sum(sizes))
        if layout is None:
            layout = GroupLayout(sizes)
        elif layout.sizes != sizes:
            raise ValueError(f"groups of sizes {list(sizes)} do not match "
                             f"the layout {list(layout.sizes)}")
        self.flat = np.asarray(flat, dtype=float)
        self.layout = layout

    def __len__(self) -> int:
        return len(self.layout.sizes)

    def __getitem__(self, j) -> np.ndarray:
        start = self.layout.starts[j]
        return self.flat[start:start + self.layout.sizes[j]]

    def __iter__(self):
        return iter(np.split(self.flat, self.layout.starts[1:]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grouped):
            return NotImplemented
        return self.layout.sizes == other.layout.sizes \
            and np.array_equal(self.flat, other.flat)

    def __repr__(self) -> str:
        return f"Grouped({self.tolist()!r})"

    def tolist(self) -> list:
        """Nested lists of Python floats, one list per group."""
        return [g.tolist() for g in self]


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
        Symbols per coherence interval; more than the n_unicast + n_groups
        pilot symbols, so that some are left for data.
    total_dl_power : float
        Total downlink power budget, noise-normalized.  Zero is allowed as a
        documented degenerate case (solvers return all-zero allocations).
    unicast_energy_budgets : list[float]
        Per-unicast-user pilot energy budget, noise-normalized.
    multicast_energy_budgets : Grouped
        Per-group, per-user pilot energy budgets, noise-normalized; given as
        nested lists or a ``Grouped``.
    unicast_weights : list[float]
        Weights of the unicast spectral efficiencies (defaults to all ones).
    layout : GroupLayout
        Derived from ``group_sizes``; the member order of every per-member
        quantity.
    """

    n_antennas: int
    n_unicast: int
    n_groups: int
    group_sizes: list
    coherence_symbols: int
    total_dl_power: float
    unicast_energy_budgets: list
    multicast_energy_budgets: Grouped
    unicast_weights: list | None = None
    layout: GroupLayout = field(init=False, repr=False, compare=False)

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
        if self.coherence_symbols <= self.n_pilots:
            raise ValueError("coherence_symbols must exceed the pilot length "
                             f"n_unicast + n_groups = {self.n_pilots}")
        if not 0 <= self.total_dl_power < math.inf:
            raise ValueError("total_dl_power must be finite and nonnegative")
        self.layout = GroupLayout(self.group_sizes)

        self.unicast_energy_budgets = [float(e) for e in self.unicast_energy_budgets]
        if len(self.unicast_energy_budgets) != self.n_unicast:
            raise ValueError("unicast_energy_budgets must have length n_unicast")
        if not all(0 < e < math.inf for e in self.unicast_energy_budgets):
            raise ValueError("unicast_energy_budgets must be finite and strictly "
                             "positive")

        budgets = Grouped(self.multicast_energy_budgets)
        if budgets.layout.sizes != self.layout.sizes:
            raise ValueError("multicast_energy_budgets must match group_sizes")
        if not np.all((budgets.flat > 0) & (budgets.flat < math.inf)):
            raise ValueError("multicast_energy_budgets must be finite and "
                             "strictly positive")
        self.multicast_energy_budgets = Grouped(budgets.flat, self.layout)

        if self.unicast_weights is None:
            self.unicast_weights = [1.0] * self.n_unicast
        self.unicast_weights = [float(w) for w in self.unicast_weights]
        if len(self.unicast_weights) != self.n_unicast:
            raise ValueError("unicast_weights must have length n_unicast")
        if not all(0 < w < math.inf for w in self.unicast_weights):
            raise ValueError("unicast_weights must be finite and strictly positive")

    @property
    def n_pilots(self) -> int:
        """Number of orthogonal pilots needed (one per unicast user, one per group)."""
        return self.n_unicast + self.n_groups

    @property
    def n_multicast(self) -> int:
        return sum(self.group_sizes)

    def prelog(self, tau: int) -> float:
        """Pilot-overhead prelog factor 1 - tau/T."""
        return 1.0 - tau / self.coherence_symbols

    def check_users(self, name: str, n_unicast: int, groups: Grouped):
        """Raise ValueError unless per-user values cover this cell's users."""
        got = (n_unicast, list(groups.layout.sizes))
        if got != (self.n_unicast, self.group_sizes):
            raise ValueError(f"{name} has (unicast users, group sizes) {got}, "
                             f"the config {(self.n_unicast, self.group_sizes)}")


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
    """Per-user large-scale fading coefficients (linear scale).

    ``fading`` holds every user's coefficient, the unicast users first and
    then the group members in member order; ``eta`` is a view of it.
    """

    beta: list
    eta: Grouped

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        eta = Grouped(self.eta)
        self.fading = np.concatenate([beta, eta.flat])
        if not np.all((self.fading > 0) & np.isfinite(self.fading)):
            raise ValueError("all fading coefficients must be positive and finite")
        self.beta = beta.tolist()
        self.eta = Grouped(self.fading[len(beta):], eta.layout)

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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("bandwidth_hz", "dl_power_watts", "pilot_energy_joules"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


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
    radii = _annulus_radii(rng, config.n_unicast + config.n_multicast,
                           exclusion_radius, cell_radius)
    return CellGeometry(
        unicast_distances=radii[:config.n_unicast].tolist(),
        multicast_distances=Grouped(radii[config.n_unicast:],
                                    config.layout).tolist(),
        cell_radius=cell_radius,
        exclusion_radius=exclusion_radius,
    )
