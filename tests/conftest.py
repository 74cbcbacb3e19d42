from types import SimpleNamespace

import numpy as np
import pytest

from mmjoint import montecarlo
from mmjoint.scenario import (
    LargeScaleProfile,
    SystemConfig,
    large_scale_fading,
    place_users,
)

# reference normalized constants: 10 W over 20 MHz at -174 dBm/Hz, 2 uJ pilots
REF_POWER = 10.0 / (20e6 * 10 ** ((-174.0 - 30.0) / 10.0))
REF_ENERGY = 2e-6 / 10 ** ((-174.0 - 30.0) / 10.0)


def use_cpus(monkeypatch, n: int):
    """Run the Monte Carlo on ``n`` workers, as a process whose CPU set holds
    ``n`` CPUs does."""
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: n)


def per_user(report):
    """The numeric fields of a Monte Carlo report, each as one array over
    every user, the unicast users first: ``per_user(report).sinr_analytic``
    joins ``report.columns[service]["sinr_analytic"]`` of both services."""
    unicast, multicast = (report.columns[service]
                          for service in ("unicast", "multicast"))
    return SimpleNamespace(**{field: np.array(unicast[field]
                                              + multicast[field])
                              for field in unicast
                              if field not in ("service", "index")})


def make_system(
    n_unicast=2,
    n_groups=1,
    group_sizes=(2,),
    n_antennas=64,
    coherence_symbols=200,
    total_dl_power=5.0,
    energy=10.0,
    weights=None,
):
    return SystemConfig(
        n_antennas=n_antennas,
        n_unicast=n_unicast,
        n_groups=n_groups,
        group_sizes=list(group_sizes),
        coherence_symbols=coherence_symbols,
        total_dl_power=total_dl_power,
        unicast_energy_budgets=[energy] * n_unicast,
        multicast_energy_budgets=[[energy] * k for k in group_sizes],
        unicast_weights=weights,
    )


def random_scenario(rng, u_max=20, g_max=10, k_max=100, n_antennas=100,
                    physical_units=True):
    """Random feasible instance with cellular geometry and noise-normalized units."""
    u = int(rng.integers(1, u_max + 1))
    g = int(rng.integers(1, g_max + 1))
    sizes = [int(k) for k in rng.integers(1, k_max + 1, size=g)]
    if physical_units:
        power, energy = REF_POWER, REF_ENERGY
    else:
        power, energy = float(rng.uniform(1.0, 20.0)), float(rng.uniform(5, 50))
    config = SystemConfig(
        n_antennas=n_antennas,
        n_unicast=u,
        n_groups=g,
        group_sizes=sizes,
        coherence_symbols=max(200, u + g + 5),
        total_dl_power=power,
        unicast_energy_budgets=[energy] * u,
        multicast_energy_budgets=[[energy] * k for k in sizes],
    )
    geometry = place_users(config, seed=int(rng.integers(2**31)))
    profile = LargeScaleProfile.from_geometry(geometry)
    return config, profile


@pytest.fixture
def small_system():
    return make_system()


@pytest.fixture
def small_profile():
    return LargeScaleProfile(beta=[0.8, 1.5], eta=[[1.0, 0.6]])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
