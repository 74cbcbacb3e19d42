"""Command-line interface: config ingestion, experiment orchestration, output.

Subcommands: ``pareto`` (boundary sweep over antenna counts), ``mmf`` /
``wsse`` (single solver run at a given power split), ``validate`` (Monte
Carlo cross-check), ``oracle-check`` (brute-force comparisons on an embedded
tiny-instance suite).  All outputs are static text files that embed the fully
resolved configuration and seed.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .closed_form import InfeasibleAllocationError, PowerAllocation
from .montecarlo import MIN_REALIZATIONS, empirical_sinr, usable_cpus
from .optimizers import (
    MIN_CONVEXITY_POINTS,
    brute_force_oracle,
    check_convexity,
    pareto_sweep,
    solve_mmf,
    solve_wsse,
)
from .scenario import (
    ATTENUATION_CONST,
    CELL_RADIUS_M,
    EXCLUSION_RADIUS_M,
    PATHLOSS_EXPONENT,
    CellGeometry,
    Grouped,
    LargeScaleProfile,
    PhysicalUnits,
    SystemConfig,
    normalize_units,
    place_users,
)

# what the field table cannot default: the cell, its power and its user drop
DEFAULT_CONFIG = {
    "scenario": {
        "n_unicast": 20,
        "n_groups": 10,
        "group_sizes": 100,
        "coherence_symbols": 200,
        "physical": {
            "bandwidth_hz": 20e6,
            "noise_psd_dbm_per_hz": -174.0,
            "dl_power_watts": 10.0,
            "pilot_energy_joules": 2e-6,
        },
        "seed": 1,
    },
}

RADIAL_RATIOS = (0.25, 0.5, 0.75)

_NON_FINITE = "the scenario gives a non-finite result (NaN or infinity)"


class ConfigError(Exception):
    """Invalid experiment configuration; ``field`` names the offending key."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def _is_number(value, kind=(int, float)) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


# a kind of value is (test, description of a valid value)
def _integer(low: int):
    return (lambda v: _is_number(v, int) and v >= low), f"an integer >= {low}"


def _list_of(kind, valid: str | None = None):
    test, each = kind  # every list in a valid config has an entry
    return (lambda v: isinstance(v, list) and v != [] and all(map(test, v)),
            valid or f"a nonempty list, each {each}")


def _one_or_list(kind, valid: str | None = None):
    test, one = kind
    many = _list_of(kind)[0]
    return (lambda v: test(v) or many(v)), valid or f"{one} or a list of them"


_REQUIRED = object()  # default of a field that must be given
_COUNT = _integer(1)
_MAPPING = (lambda v: isinstance(v, dict)), "a mapping"
_NUMBER = _is_number, "a number"
_POSITIVE = (lambda v: _is_number(v) and 0.0 < v < math.inf,
             "a finite positive number")
_NONNEGATIVE = (lambda v: _is_number(v) and 0.0 <= v < math.inf,
                "a finite number >= 0")

# block -> key -> (kind, default); a default of None leaves an absent field
# absent, and a callable default is called each time the block is resolved.
# Rules that join fields (list lengths, the radii's order, distances inside
# the cell, the physical ranges, the pilot length below the coherence
# interval) live in the dataclasses of ``scenario``.
_FIELDS = {
    "<root>": {"scenario": (_MAPPING, _REQUIRED), "sweep": (_MAPPING, {}),
               "montecarlo": (_MAPPING, {}), "output": (_MAPPING, {})},
    "scenario": {
        "n_antennas": (_COUNT, 100),
        "n_unicast": (_COUNT, _REQUIRED),
        "n_groups": (_COUNT, _REQUIRED),
        "group_sizes": (_one_or_list(_COUNT), _REQUIRED),
        "coherence_symbols": (_COUNT, _REQUIRED),
        "unicast_weights": (_list_of(_POSITIVE), None),
        "physical": (_MAPPING, None),
        "total_dl_power": (_NONNEGATIVE, None),
        "unicast_energy_budgets": (_one_or_list(_POSITIVE), None),
        "multicast_energy_budgets": (_one_or_list(
            _one_or_list(_POSITIVE), "a finite positive number, or a list "
            "with one such number or list of them per group"), None),
        "cell_radius_m": (_POSITIVE, CELL_RADIUS_M),
        "exclusion_radius_m": (_POSITIVE, EXCLUSION_RADIUS_M),
        "pathloss_exponent": (_POSITIVE, PATHLOSS_EXPONENT),
        "attenuation_const": (_POSITIVE, ATTENUATION_CONST),
        "seed": (_integer(0), None),
        "unicast_distances": (_list_of(_NUMBER), None),
        "multicast_distances": (_list_of(
            _list_of(_NUMBER), "a nonempty list of nonempty lists of numbers"),
            None),
    },
    "physical": {key: (_NUMBER, _REQUIRED) for key in (
        "bandwidth_hz", "noise_psd_dbm_per_hz", "dl_power_watts",
        "pilot_energy_joules")},
    "sweep": {
        "n_points": (_integer(MIN_CONVEXITY_POINTS), 21),
        "antenna_counts": (  # a repeated count would repeat its rows
            (lambda v: _list_of(_COUNT)[0](v) and len(set(v)) == len(v),
             "a nonempty list of distinct integers >= 1"), [50, 100, 200]),
    },
    "montecarlo": {
        "n_realizations": (_integer(MIN_REALIZATIONS), 20000),
        "seed": (_integer(0), 1),
        "n_workers": (_COUNT, usable_cpus),
        "unicast_power_fraction": (
            (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
            0.5),
    },
    "output": {
        "directory": ((lambda v: isinstance(v, str) and v != "",
                       "a nonempty string"), "out"),
    },
}


def _resolve(block, name: str) -> dict:
    """Check one block against its rows of ``_FIELDS``; return a copy with the
    defaults filled in."""
    if not isinstance(block, dict):
        raise ConfigError(name, f"{name} must be a mapping")
    rows = _FIELDS[name]
    for key in block:
        if key not in rows:
            raise ConfigError(f"{name}.{key}", "unknown key")
    resolved = {}
    for key, ((test, valid), default) in rows.items():
        if key in block:
            if not test(block[key]):
                raise ConfigError(f"{name}.{key}", f"{key} must be {valid}")
            resolved[key] = block[key]
        elif default is _REQUIRED:
            raise ConfigError(f"{name}.{key}", "missing required field")
        elif callable(default):
            resolved[key] = default()
        elif default is not None:
            resolved[key] = copy.deepcopy(default)
    return resolved


def _need(sc: dict, *keys: str):
    """Fields optional on their own but required on the path that was taken."""
    for key in keys:
        if key not in sc:
            raise ConfigError(f"scenario.{key}", "missing required field")


@dataclass
class ExperimentConfig:
    """Fully validated and resolved experiment configuration."""

    scenario: dict
    sweep: dict
    montecarlo: dict
    output: dict
    base_system: SystemConfig
    geometry: CellGeometry
    profile: LargeScaleProfile

    @property
    def total_dl_power(self) -> float:
        return self.base_system.total_dl_power

    @property
    def unicast_energy_budgets(self) -> list:
        return self.base_system.unicast_energy_budgets

    @property
    def multicast_energy_budgets(self) -> Grouped:
        return self.base_system.multicast_energy_budgets

    def system(self, n_antennas: int | None = None) -> SystemConfig:
        if n_antennas is None:
            n_antennas = self.base_system.n_antennas
        return replace(self.base_system, n_antennas=n_antennas)

    def provenance(self) -> dict:
        """Resolved config echoed into every output file.

        The parallelism degree is excluded: it cannot affect results, and
        outputs must be byte-identical across worker counts.
        """
        mc = {k: v for k, v in self.montecarlo.items() if k != "n_workers"}
        return {
            "tool": f"mmjoint {__version__}",
            "scenario": self.scenario,
            "sweep": self.sweep,
            "montecarlo": mc,
            "output": self.output,
            "normalized": {
                "total_dl_power": self.total_dl_power,
                "unicast_energy_budgets": self.unicast_energy_budgets,
                "multicast_energy_budgets":
                    self.multicast_energy_budgets.tolist(),
                "convention": "powers normalized by sigma2*W; pilot energy "
                "by sigma2 (one symbol = 1/W seconds)",
            },
        }


def load_config(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Validate a raw config mapping, fill its defaults and resolve all
    derived quantities.

    ``overrides`` maps block -> key -> value; each value replaces the raw
    one (None removes the key) before the block is checked.
    """
    root = _resolve(raw, "<root>")  # every block is now a mapping
    for name, changes in (overrides or {}).items():
        merged = {**root[name], **changes}
        root[name] = {k: v for k, v in merged.items() if v is not None}
    sc, sweep, mc, out = (_resolve(root[name], name)
                          for name in ("scenario", "sweep", "montecarlo",
                                       "output"))

    n_unicast, n_groups = sc["n_unicast"], sc["n_groups"]
    if isinstance(sc["group_sizes"], int):
        sc["group_sizes"] = [sc["group_sizes"]] * n_groups
    sizes = sc["group_sizes"]

    # power and pilot energy: physical block or normalized values directly
    if "physical" in sc:
        sc["physical"] = _resolve(sc["physical"], "physical")
        try:
            total_power, energy = normalize_units(
                PhysicalUnits(**sc["physical"]))
        # ArithmeticError: the noise density over- or underflows a float
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError("physical", str(exc))
        uni = multi = energy
    else:
        _need(sc, "total_dl_power", "unicast_energy_budgets",
              "multicast_energy_budgets")
        total_power = float(sc["total_dl_power"])
        uni = sc["unicast_energy_budgets"]
        multi = sc["multicast_energy_budgets"]
    if not isinstance(multi, list):
        multi = [multi] * len(sizes)
    if len(multi) != len(sizes):
        raise ConfigError("scenario.multicast_energy_budgets",
                          "multicast_energy_budgets must be a scalar or "
                          "have one entry per group")

    try:
        system = SystemConfig(
            n_antennas=sc["n_antennas"],
            n_unicast=n_unicast,
            n_groups=n_groups,
            group_sizes=sizes,
            coherence_symbols=sc["coherence_symbols"],
            total_dl_power=total_power,
            unicast_energy_budgets=uni if isinstance(uni, list)
            else [uni] * n_unicast,
            multicast_energy_budgets=[
                g if isinstance(g, list) else [g] * k
                for g, k in zip(multi, sizes)
            ],
            unicast_weights=sc.get("unicast_weights"),
        )
    except ValueError as exc:
        raise ConfigError("scenario", str(exc))

    # geometry: explicit distances win over a drop seed
    if "unicast_distances" in sc or "multicast_distances" in sc:
        _need(sc, "unicast_distances", "multicast_distances")
        try:
            geometry = CellGeometry(
                unicast_distances=sc["unicast_distances"],
                multicast_distances=sc["multicast_distances"],
                cell_radius=sc["cell_radius_m"],
                exclusion_radius=sc["exclusion_radius_m"],
            )
        except ValueError as exc:
            raise ConfigError("scenario.unicast_distances", str(exc))
    elif "seed" in sc:
        try:
            geometry = place_users(system, sc["cell_radius_m"],
                                   sc["exclusion_radius_m"], sc["seed"])
        except ValueError as exc:
            raise ConfigError("scenario.exclusion_radius_m", str(exc))
    else:
        raise ConfigError(
            "scenario.seed", "either a seed or explicit distances are required"
        )
    try:
        profile = LargeScaleProfile.from_geometry(
            geometry, sc["pathloss_exponent"], sc["attenuation_const"]
        )
    except (ValueError, OverflowError) as exc:
        raise ConfigError("scenario", "pathloss_exponent and "
                          f"attenuation_const give unusable fading: {exc}")

    return ExperimentConfig(
        scenario=sc, sweep=sweep, montecarlo=mc, output=out,
        base_system=system, geometry=geometry, profile=profile,
    )


def _read_raw_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    p = Path(path)
    if not p.is_file():
        raise ConfigError("<config>", f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON: {exc}")


def load_config_file(path: str | None) -> ExperimentConfig:
    return load_config(_read_raw_config(path))


def _write_atomic(path: Path, chunks):
    """Write the text ``chunks`` into a sibling ``.partial`` file that
    replaces ``path`` once complete, so ``path`` never holds part of a write.
    The ``.partial`` file is removed if anything fails."""
    partial = path.with_name(path.name + ".partial")
    try:
        with partial.open("w") as fh:
            fh.writelines(chunks)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _write_lines(path: Path, provenance: dict, lines: list[str]):
    """``lines`` under one '#' line that holds ``provenance``."""
    header = "# " + json.dumps(provenance, sort_keys=True)
    _write_atomic(path, ["\n".join([header, *lines]) + "\n"])


def write_pareto_csv(path: Path, rows: list[tuple], provenance: dict):
    """CSV with header N,p_un,p_mu,o_mu,o_un; provenance as '#' comments."""
    lines = ["N,p_un,p_mu,o_mu,o_un"]
    lines += itertools.starmap("{},{:.17e},{:.17e},{:.17e},{:.17e}".format,
                               rows)
    _write_lines(path, provenance, lines)


def emit_plotdata(
    points_by_n: dict, path: Path, provenance: dict,
    radial_ratios=RADIAL_RATIOS,
):
    """Plain tab-delimited plot data: one (o_mu, o_un) series per antenna
    count, plus radial-line annotations at fixed P_un/P power-split ratios.
    A radial line takes the point whose p_un is nearest ratio * P, the lower
    p_un on a tie."""
    if not points_by_n:
        raise ValueError("no sweep results to emit")
    lines = ["# columns: o_mu<TAB>o_un"]
    series = {}  # n -> (p_un array, P, the points' formatted lines)
    for n, points in points_by_n.items():
        p_un, o_mu, o_un = zip(*((pt.p_un, pt.o_mu, pt.o_un)
                                 for pt in points))
        text = list(map("{:.17e}\t{:.17e}".format, o_mu, o_un))
        series[n] = (np.array(p_un), points[0].p_un + points[0].p_mu, text)
        lines.append(f"# series N={n}")
        lines += text
    for ratio in radial_ratios:
        lines.append(f"# radial P_un/P={ratio}")
        for p_un, total, text in series.values():
            lines.append(text[np.argmin(np.abs(p_un - ratio * total))])
    _write_lines(path, provenance, lines)


def _write_json(path: Path, payload: dict):
    """Indented JSON, encoded piece by piece straight into the file."""
    encoder = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
    try:
        _write_atomic(path, itertools.chain(encoder.iterencode(payload),
                                            ["\n"]))
    except ValueError:  # the encoder refuses NaN and infinity
        raise ConfigError("scenario", _NON_FINITE)


def _cmd_pareto(cfg: ExperimentConfig, args, out_dir: Path) -> int:
    if not cfg.total_dl_power > 0.0:
        raise ConfigError("scenario.total_dl_power",
                          "a sweep needs a positive total downlink power")
    points_by_n, rows, convexity = {}, [], {}
    for n in cfg.sweep["antenna_counts"]:
        system = cfg.system(n_antennas=n)
        points = pareto_sweep(system, cfg.profile, cfg.sweep["n_points"])
        points_by_n[n] = points
        new_rows = [(n, pt.p_un, pt.p_mu, pt.o_mu, pt.o_un) for pt in points]
        if not np.all(np.isfinite(new_rows)):
            raise ConfigError("scenario", _NON_FINITE)
        rows += new_rows
        convexity[str(n)] = asdict(check_convexity(points))
    rows.sort(key=itemgetter(0, 1))
    prov = cfg.provenance()
    # the JSON check for non-finite values runs before any file is written
    _write_json(out_dir / "convexity_report.json",
                {"provenance": prov, "convexity": convexity})
    write_pareto_csv(out_dir / "pareto.csv", rows, prov)
    emit_plotdata(points_by_n, out_dir / "pareto_plotdata.txt", prov)
    return 0


def _split_from_args(cfg: ExperimentConfig, args) -> tuple[float, float]:
    P = cfg.total_dl_power
    if args.p_un is not None:
        p_un = args.p_un
    elif args.p_mu is not None:
        p_un = P - args.p_mu
    else:
        p_un = cfg.montecarlo["unicast_power_fraction"] * P
    p_mu = P - p_un
    if not (p_un >= 0 and p_mu >= 0):  # NaN fails too
        raise InfeasibleAllocationError(
            f"power split p_un={p_un!r}, p_mu={p_mu!r} violates the total "
            f"downlink power constraint P_un + P_mu <= P with P={P!r}"
        )
    return p_un, p_mu


def _cmd_solve(cfg: ExperimentConfig, args, out_dir: Path) -> int:
    """``mmf`` or ``wsse``: one solver run, its solution's fields written."""
    p_un, p_mu = _split_from_args(cfg, args)
    system = cfg.system()
    if args.command == "mmf":
        sol = solve_mmf(system, cfg.profile, p_un)
    else:
        sol = solve_wsse(system, cfg.profile, p_mu)
    body = {f.name: getattr(sol, f.name) for f in fields(sol)}
    body["objective_bits_per_s_per_hz"] = body.pop("objective")
    _write_json(out_dir / f"{args.command}_solution.json", {
        "provenance": cfg.provenance(),
        "n_antennas": system.n_antennas,
        "p_un": p_un,
        "p_mu": p_mu,
        "solution": {k: v.tolist() if isinstance(v, Grouped) else v
                     for k, v in body.items()},
    })
    return 0


def _cmd_validate(cfg, args, out_dir: Path) -> int:
    p_un, p_mu = _split_from_args(cfg, args)
    system = cfg.system()
    mmf = solve_mmf(system, cfg.profile, p_un)
    wsse = solve_wsse(system, cfg.profile, p_mu)
    # an overflowing scenario would read as an infeasible allocation
    if not all(map(math.isfinite, (mmf.objective, wsse.objective))):
        raise ConfigError("scenario", _NON_FINITE)
    alloc = PowerAllocation(
        p_dl=wsse.p_dl, q_dl=mmf.q_dl, p_up=wsse.p_up, q_up=mmf.q_up,
        tau=system.n_pilots,
    )
    mc = cfg.montecarlo
    report = empirical_sinr(
        system, cfg.profile, alloc, n_realizations=mc["n_realizations"],
        seed=mc["seed"], n_workers=mc["n_workers"],
    )
    _write_json(out_dir / "montecarlo_report.json",
                {"provenance": cfg.provenance(), "p_un": p_un, "p_mu": p_mu,
                 "report": report.to_dict()})
    return 0


# tiny embedded instances exercised by the oracle-check subcommand
_ORACLE_SUITE = [
    {"n_unicast": 2, "n_groups": 1, "group_sizes": [2], "drop_seed": 11},
    {"n_unicast": 3, "n_groups": 2, "group_sizes": [2, 1], "drop_seed": 23},
    {"n_unicast": 1, "n_groups": 1, "group_sizes": [1], "drop_seed": 37},
]


def _cmd_oracle_check(cfg, args, out_dir: Path) -> int:
    # the tiny instances take the config's T, power, first budgets, radii
    # and path loss
    shared = {key: cfg.scenario[key] for key in (
        "coherence_symbols", "cell_radius_m", "exclusion_radius_m",
        "pathloss_exponent", "attenuation_const")}
    shared.update(
        n_antennas=64, total_dl_power=cfg.total_dl_power,
        unicast_energy_budgets=cfg.unicast_energy_budgets[0],
        multicast_energy_budgets=float(cfg.multicast_energy_budgets.flat[0]))
    results, ok = [], True
    for spec in _ORACLE_SUITE:
        sizes = {k: spec[k] for k in ("n_unicast", "n_groups", "group_sizes")}
        try:
            tiny = load_config({"scenario": {**shared, **sizes,
                                             "seed": spec["drop_seed"]}})
        except ConfigError as exc:
            raise ConfigError(exc.field,
                              f"oracle-check instance {spec}: {exc.message}")
        system, profile = tiny.system(), tiny.profile
        P = system.total_dl_power
        mmf = solve_mmf(system, profile, p_un=0.3 * P)
        mmf_oracle = brute_force_oracle(system, profile, "mmf", 400,
                                        p_un=0.3 * P)
        wsse = solve_wsse(system, profile, p_mu=0.3 * P)
        wsse_oracle = brute_force_oracle(system, profile, "wsse", 200,
                                         p_mu=0.3 * P)
        entry = {"instance": spec, "mmf_closed_form": mmf.objective,
                 "mmf_oracle": mmf_oracle.objective,
                 "wsse_closed_form": wsse.objective,
                 "wsse_oracle": wsse_oracle.objective}
        entry["consistent"] = (
            mmf_oracle.objective <= mmf.objective * (1 + 1e-9) + 1e-12
            and wsse_oracle.objective <= wsse.objective * (1 + 1e-9) + 1e-12
        )
        ok = ok and entry["consistent"]
        results.append(entry)
    _write_json(out_dir / "oracle_report.json",
                {"provenance": cfg.provenance(), "results": results,
                 "all_consistent": ok})
    return 0 if ok else 4


# override flag -> (type, help text)
_FLAGS = {
    "--p-un": (float, "unicast downlink power (normalized)"),
    "--p-mu": (float, "multicast downlink power (normalized)"),
    "--n": (int, "antenna count override"),
    "--points": (int, "sweep points override"),
    "--seed": (int, "seed override"),
}
_AT_A_SPLIT = ("--p-un", "--p-mu", "--n", "--seed")

# subcommand -> (handler, the override flags it reads, help text); every
# subcommand also takes --config and --out, and any other flag is a usage
# error
_COMMANDS = {
    "pareto": (_cmd_pareto, ("--n", "--points", "--seed"),
               "sweep the Pareto boundary over antenna counts"),
    "mmf": (_cmd_solve, _AT_A_SPLIT,
            "solve the multicast max-min problem at a power split"),
    "wsse": (_cmd_solve, _AT_A_SPLIT,
             "solve the weighted-sum unicast SE problem at a power split"),
    "validate": (_cmd_validate, _AT_A_SPLIT,
                 "Monte Carlo validation of the closed-form SINRs"),
    "oracle-check": (_cmd_oracle_check, (),
                     "brute-force comparisons on tiny embedded instances"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmjoint",
        description="Joint unicast / multigroup-multicast massive MIMO "
        "resource allocation: closed-form solvers, Pareto sweep, and Monte "
        "Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file (embedded default if omitted)")
        for flag in flags:
            kind, flag_help = _FLAGS[flag]
            p.add_argument(flag, type=kind, help=flag_help)
        p.add_argument("--out", metavar="DIR", help="output directory")
    return parser


def _overrides(args) -> dict:
    """The command-line overrides as ``load_config`` takes them, so that
    ``provenance`` records what is computed."""
    flags = vars(args)  # a command's namespace has only its own flags
    n, points, seed = map(flags.get, ("n", "points", "seed"))
    if n is not None and n < 1:
        raise ConfigError("--n", "antenna count must be a positive integer")
    if points is not None and points < MIN_CONVEXITY_POINTS:
        raise ConfigError("--points", "a sweep needs at least "
                          f"{MIN_CONVEXITY_POINTS} points")
    overrides = {"scenario": {}, "sweep": {}, "montecarlo": {}}
    if seed is not None:
        # a new drop replaces explicit distances
        overrides["scenario"].update(seed=seed, unicast_distances=None,
                                     multicast_distances=None)
        overrides["montecarlo"]["seed"] = seed
    if n is not None:
        overrides["scenario"]["n_antennas"] = n
        overrides["sweep"]["antenna_counts"] = [n]
    if points is not None:
        overrides["sweep"]["n_points"] = points
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = _overrides(args)  # checked before the config is read
        cfg = load_config(_read_raw_config(args.config), overrides)
        out_dir = Path(args.out or cfg.output["directory"])
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.handler(cfg, args, out_dir)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "field": exc.field,
                          "message": exc.message}), file=sys.stderr)
        return 2
    except InfeasibleAllocationError as exc:
        print(json.dumps({"error": "infeasible", "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
