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
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

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


def _count(low: int):
    """An integer from ``low`` that fits an index, and so a float."""
    return ((lambda v: _is_number(v, int) and low <= v <= sys.maxsize),
            f"an integer from {low} to {sys.maxsize}")


def _list_of(kind, valid: str | None = None):
    test, each = kind  # every list in a valid config has an entry
    return (lambda v: isinstance(v, list) and v != [] and all(map(test, v)),
            valid or f"a nonempty list, each {each}")


def _one_or_list(kind, valid: str | None = None):
    test, one = kind
    many = _list_of(kind)[0]
    return (lambda v: test(v) or many(v)), valid or f"{one} or a list of them"


_REQUIRED = object()  # default of a field that must be given
_COUNT = _count(1)
_MAPPING = (lambda v: isinstance(v, dict)), "a mapping"
_NUMBER = _is_number, "a number"


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # a JSON integer past the float range
        return False


_FINITE = (lambda v: _is_number(v) and _finite(v)), "a finite number"
_POSITIVE = (lambda v: _is_number(v) and _finite(v) and v > 0,
             "a finite positive number")
_NONNEGATIVE = (lambda v: _is_number(v) and _finite(v) and v >= 0,
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
        "unicast_distances": (_list_of(_FINITE), None),
        "multicast_distances": (_list_of(
            _list_of(_FINITE),
            "a nonempty list of nonempty lists of finite numbers"), None),
    },
    "physical": {key: (_NUMBER, _REQUIRED) for key in (
        "bandwidth_hz", "noise_psd_dbm_per_hz", "dl_power_watts",
        "pilot_energy_joules")},
    "sweep": {
        "n_points": (_count(MIN_CONVEXITY_POINTS), 21),
        "antenna_counts": (  # a repeated count would repeat its rows
            (lambda v: _list_of(_COUNT)[0](v) and len(set(v)) == len(v),
             "a nonempty list of distinct integers from 1 to "
             f"{sys.maxsize}"), [50, 100, 200]),
    },
    "montecarlo": {
        "n_realizations": (_count(MIN_REALIZATIONS), 20000),
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
        lo, hi = sc["exclusion_radius_m"], sc["cell_radius_m"]
        for key, lists, counts in (
                ("unicast_distances", [sc["unicast_distances"]], [n_unicast]),
                ("multicast_distances", sc["multicast_distances"], sizes)):
            got = [len(d) for d in lists]
            if got != counts:
                raise ConfigError(f"scenario.{key}", f"{key} must give one "
                                  f"distance per user: {counts}, not {got}")
            if not all(lo <= x <= hi for d in lists for x in d):
                raise ConfigError(f"scenario.{key}", "all distances must "
                                  "lie in [exclusion_radius, cell_radius]")
        geometry = CellGeometry(
            unicast_distances=sc["unicast_distances"],
            multicast_distances=sc["multicast_distances"],
            cell_radius=hi, exclusion_radius=lo)
    elif "seed" in sc:
        try:
            geometry = place_users(system, sc["cell_radius_m"],
                                   sc["exclusion_radius_m"], sc["seed"])
        except ValueError as exc:
            raise ConfigError("scenario.exclusion_radius_m", str(exc))
        except OverflowError:  # the area of the cell
            raise ConfigError("scenario.cell_radius_m", "the squared cell "
                              "radius exceeds the float range")
    else:
        raise ConfigError(
            "scenario.seed", "either a seed or explicit distances are required"
        )
    try:
        profile = LargeScaleProfile.from_geometry(
            geometry, sc["pathloss_exponent"], sc["attenuation_const"]
        )
    # ArithmeticError: a distance's power over- or underflows a float
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError("scenario", "the distances, pathloss_exponent and "
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
        return json.loads(p.read_text(encoding="utf-8"))
    # ValueError: invalid JSON, text that is not UTF-8 or an integer past
    # Python's digit limit; RecursionError: nesting past the parser's depth
    except (ValueError, RecursionError) as exc:
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


class SeriesText(NamedTuple):
    """One boundary series as the output files print it.

    ``p_un`` holds the splits in increasing order and ``total`` their sum
    P_un + P_mu.  ``grid`` holds the text 'p_un,p_mu' of each split, and
    ``o_mu`` and ``o_un`` the text of each objective, all in '.17e' format.
    Series on one grid can share its ``p_un`` and ``grid``.
    """

    p_un: np.ndarray
    total: float
    grid: list[str]
    o_mu: list[str]
    o_un: list[str]


def _texts(values: np.ndarray) -> list[str]:
    return list(map("{:.17e}".format, values.tolist()))


def grid_text(p_un: np.ndarray, p_mu: np.ndarray) -> list[str]:
    """The 'p_un,p_mu' text of each split, for ``SeriesText.grid``."""
    return list(map("{:.17e},{:.17e}".format, p_un.tolist(), p_mu.tolist()))


def provenance_header(provenance: dict) -> str:
    """The '#' line that holds ``provenance`` above a text file's data."""
    return "# " + json.dumps(provenance, sort_keys=True)


def _write_lines(path: Path, header: str, lines: list[str]):
    _write_atomic(path, ["\n".join([header, *lines]) + "\n"])


def write_pareto_csv(path: Path, series: dict, header: str):
    """CSV with header N,p_un,p_mu,o_mu,o_un under the provenance line
    ``header``; rows sorted by N, then by p_un.  ``series`` maps N to its
    ``SeriesText``."""
    lines = ["N,p_un,p_mu,o_mu,o_un"]
    for n in sorted(series):
        s = series[n]
        lines += map(f"{n},{{}},{{}},{{}}".format, s.grid, s.o_mu, s.o_un)
    _write_lines(path, header, lines)


def emit_plotdata(series: dict, path: Path, header: str):
    """Plain tab-delimited plot data under the provenance line ``header``:
    one (o_mu, o_un) series per antenna count of ``series`` (N ->
    ``SeriesText``), in its order, plus radial-line annotations at the
    P_un/P power-split ratios ``RADIAL_RATIOS``.  A radial line takes the
    point whose p_un is nearest ratio * P, the lower p_un on a tie."""
    if not series:
        raise ValueError("no sweep results to emit")
    lines = ["# columns: o_mu<TAB>o_un"]
    text = {n: list(map("{}\t{}".format, s.o_mu, s.o_un))
            for n, s in series.items()}
    for n, rows in text.items():
        lines.append(f"# series N={n}")
        lines += rows
    for ratio in RADIAL_RATIOS:
        lines.append(f"# radial P_un/P={ratio}")
        lines += [text[n][np.argmin(np.abs(s.p_un - ratio * s.total))]
                  for n, s in series.items()]
    _write_lines(path, header, lines)


_BLOCK = 64  # list entries encoded and written at a time


class Table:
    """Rows held as columns: ``columns`` maps each key to a list of one
    value per row, all of one length.  The JSON writer writes a table as
    the list of its rows' dicts without building them; a table with no
    column has no row."""

    def __init__(self, columns: dict):
        if len(set(map(len, columns.values()))) > 1:
            raise ValueError("table columns differ in length")
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, rows: slice) -> Table:
        return Table({k: v[rows] for k, v in self.columns.items()})


def _scalar_text(o) -> str | None:
    """The JSON text of a string, number, bool or None; None for any other
    object."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ConfigError("scenario", _NON_FINITE)
        return float.__repr__(o)
    return None


def _key_text(key) -> str:
    """A mapping key as ``json`` writes it: a scalar key becomes a string."""
    text = key if isinstance(key, str) else _scalar_text(key)
    if text is None:
        raise TypeError("keys must be str, int, float, bool or None, not "
                        f"{type(key).__name__}")
    return encode_basestring_ascii(text)


def _column_texts(values, level: int):
    """The JSON texts of ``values``, each at nesting depth ``level``.

    A column of one plain scalar type is encoded in one call.  A column of
    lists or tuples of one length shorter than the column is split into the
    columns of its entries; each text is then one ``format`` of a template
    that holds the indentation.  Any other column is encoded one value at a
    time.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        if not all(map(math.isfinite, values)):
            raise ConfigError("scenario", _NON_FINITE)
        return map(float.__repr__, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    if kinds <= {list, tuple} and len(set(map(len, values))) == 1:
        if 0 < len(values[0]) < len(values):  # fewer columns than rows
            columns = list(map(list, zip(*values)))
            return _formatted("[", [""] * len(columns), "]", columns, level)
    return ["".join(_json_text(v, level)) for v in values]


def _row_texts(table: Table, level: int):
    """The JSON texts of the rows of ``table``, each at depth ``level``:
    one ``format`` per row of a template that holds the indentation and the
    key texts, its entries encoded column by column."""
    keys = sorted(table.columns)
    heads = [_key_text(k).replace("{", "{{").replace("}", "}}") + ": "
             for k in keys]
    return _formatted("{{", heads, "}}", [table.columns[k] for k in keys],
                      level)


def _formatted(opening: str, heads: list, closing: str, columns: list,
               level: int):
    """The texts of the containers at depth ``level`` whose entries are
    ``columns``, each entry after its key text in ``heads``."""
    inner = "\n" + "  " * (level + 1)
    template = (opening + ",".join(inner + head + "{}" for head in heads)
                + "\n" + "  " * level + closing)
    return map(template.format,
               *[_column_texts(column, level + 1) for column in columns])


def _json_text(o, level: int = 0):
    """Yield the text of ``o`` at nesting depth ``level`` as
    ``json.dumps(o, indent=2, sort_keys=True, allow_nan=False)`` writes it,
    a ``Table`` as the list of its rows' dicts; a list or a table goes
    ``_BLOCK`` entries at a time."""
    text = _scalar_text(o)
    if text is not None:
        yield text
        return
    inner = "\n" + "  " * (level + 1)
    closing = "\n" + "  " * level
    if isinstance(o, dict):
        opening = "{" + inner
        for key in sorted(o):
            yield opening + _key_text(key) + ": "
            yield from _json_text(o[key], level + 1)
            opening = "," + inner
        yield closing + "}" if o else "{}"
    elif isinstance(o, (list, tuple, Table)):
        texts = _row_texts if isinstance(o, Table) else _column_texts
        opening = "[" + inner
        for start in range(0, len(o), _BLOCK):
            yield opening + ("," + inner).join(
                texts(o[start:start + _BLOCK], level + 1))
            opening = "," + inner
        yield closing + "]" if len(o) else "[]"
    else:
        raise TypeError(
            f"Object of type {type(o).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict):
    """Write ``payload`` as the bytes of ``json.dumps(payload, indent=2,
    sort_keys=True, allow_nan=False)`` and a newline, streamed into the
    file, with each ``Table`` written as the list of its rows' dicts.  A
    list or a table is encoded a block of entries at a time, a table column
    by column.  NaN or infinity raises ``ConfigError`` naming ``scenario``,
    and an object that is not JSON ``TypeError``; either way ``path`` keeps
    what it held."""
    _write_atomic(path, itertools.chain(_json_text(payload), ["\n"]))


def _cmd_pareto(cfg: ExperimentConfig, args, out_dir: Path) -> int:
    P = cfg.total_dl_power
    if not P > 0.0:
        raise ConfigError("scenario.total_dl_power",
                          "a sweep needs a positive total downlink power")
    series, convexity, grid = {}, {}, None
    for n in cfg.sweep["antenna_counts"]:
        sweep = pareto_sweep(cfg.system(n_antennas=n), cfg.profile,
                             cfg.sweep["n_points"])
        p_un = sweep.p_un
        o_mu, o_un = sweep.mmf.objective, sweep.wsse.objective
        try:
            convexity[str(n)] = asdict(check_convexity(p_un, o_mu, o_un))
        except ValueError as exc:  # e.g. fading so weak that every SE is 0
            raise ConfigError("scenario",
                              f"the Pareto boundary is degenerate: {exc}")
        # one grid for every N: P and the point count do not depend on N
        grid = grid or grid_text(p_un, sweep.p_mu)
        series[n] = SeriesText(p_un, P, grid, _texts(o_mu), _texts(o_un))
    prov = cfg.provenance()
    # the JSON check for non-finite values runs before any file is written
    _write_json(out_dir / "convexity_report.json",
                {"provenance": prov, "convexity": convexity})
    header = provenance_header(prov)
    write_pareto_csv(out_dir / "pareto.csv", series, header)
    emit_plotdata(series, out_dir / "pareto_plotdata.txt", header)
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
    alloc = PowerAllocation(
        p_dl=wsse.p_dl, q_dl=mmf.q_dl, p_up=wsse.p_up, q_up=mmf.q_up,
        tau=system.n_pilots,
    )
    mc = cfg.montecarlo
    report = empirical_sinr(
        system, cfg.profile, alloc, n_realizations=mc["n_realizations"],
        seed=mc["seed"], n_workers=mc["n_workers"],
    )
    _write_json(out_dir / "montecarlo_report.json", {
        "provenance": cfg.provenance(), "p_un": p_un, "p_mu": p_mu,
        "report": {"n_realizations": report.n_realizations,
                   "seed": report.seed,
                   **{service: Table(columns)
                      for service, columns in report.columns.items()}}})
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
_SPLIT_FLAGS = ("--p-un", "--p-mu")  # a split takes at most one of them
_AT_A_SPLIT = (*_SPLIT_FLAGS, "--n", "--seed")

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was."""
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
        split = p.add_mutually_exclusive_group() if "--p-un" in flags else p
        for flag in flags:
            kind, flag_help = _FLAGS[flag]
            (split if flag in _SPLIT_FLAGS else p).add_argument(
                flag, type=kind, help=flag_help)
        p.add_argument("--out", metavar="DIR", help="output directory")
    return parser


def _overrides(args) -> dict:
    """The command-line overrides as ``load_config`` takes them, so that
    ``provenance`` records what is computed."""
    flags = vars(args)  # a command's namespace has only its own flags
    n, points, seed, p_un, p_mu = map(flags.get,
                                      ("n", "points", "seed", "p_un", "p_mu"))
    for flag, value, (test, valid) in (
            ("--n", n, _COUNT),
            ("--points", points, _count(MIN_CONVEXITY_POINTS))):
        if value is not None and not test(value):
            raise ConfigError(flag, f"{flag} must be {valid}")
    for flag, power in zip(_SPLIT_FLAGS, (p_un, p_mu)):
        if power is not None and not math.isfinite(power):
            raise ConfigError(flag, "a power must be a finite number")
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
        try:
            return args.handler(cfg, args, out_dir)
        except FloatingPointError:  # an overflow, e.g. from a huge power
            raise ConfigError("scenario", _NON_FINITE)
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
