"""Joint unicast and multigroup-multicast massive MIMO downlink under MRT:
closed-form resource allocation, Pareto boundary analysis, and Monte Carlo
cross-validation of every analytic expression.
"""

__version__ = "0.1.0"

from .closed_form import (  # noqa: F401
    EstimationStats,
    InfeasibleAllocationError,
    PowerAllocation,
    SpectralEfficiencies,
    evaluate,
)
from .montecarlo import (  # noqa: F401
    MonteCarloReport,
    UserSinrBreakdown,
    empirical_sinr,
)
from .optimizers import (  # noqa: F401
    MmfSolution,
    ParetoBoundary,
    WsseSolution,
    brute_force_oracle,
    check_convexity,
    pareto_sweep,
    solve_mmf,
    solve_wsse,
)
from .scenario import (  # noqa: F401
    CellGeometry,
    LargeScaleProfile,
    PhysicalUnits,
    SystemConfig,
    large_scale_fading,
    normalize_units,
    place_users,
)
