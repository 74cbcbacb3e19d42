"""In-memory span tracer that wraps public names of the ``mmjoint`` modules.

A traced name is replaced in every loaded ``mmjoint`` module that binds it
(``closed_form.pilot_scaling`` is also ``montecarlo.pilot_scaling``), so calls
made inside the package are recorded as well as calls from the benchmark.
Classes are traced through ``__init__`` and classmethods through their
underlying function.  Each span records its parent; a span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (metric prefix, module, attribute path inside the module)
TARGETS = [
    ("optimizers.solve_mmf", "optimizers", "solve_mmf"),
    ("optimizers.solve_wsse", "optimizers", "solve_wsse"),
    ("optimizers.pareto_sweep", "optimizers", "pareto_sweep"),
    ("optimizers.check_convexity", "optimizers", "check_convexity"),
    ("closed_form.evaluate", "closed_form", "evaluate"),
    ("closed_form.PowerAllocation", "closed_form", "PowerAllocation"),
    ("closed_form.pilot_scaling", "closed_form", "pilot_scaling"),
    ("closed_form.EstimationStats.from_allocation", "closed_form",
     "EstimationStats.from_allocation"),
    ("montecarlo.draw_channels", "montecarlo", "draw_channels"),
    ("montecarlo.estimate_channels", "montecarlo", "estimate_channels"),
    ("montecarlo.mrt_precoders", "montecarlo", "mrt_precoders"),
    ("montecarlo.empirical_sinr", "montecarlo", "empirical_sinr"),
    ("scenario.place_users", "scenario", "place_users"),
    ("scenario.from_geometry", "scenario", "LargeScaleProfile.from_geometry"),
    ("cli.load_config", "cli", "load_config"),
    ("cli.write_pareto_csv", "cli", "write_pareto_csv"),
    ("cli.emit_plotdata", "cli", "emit_plotdata"),
    ("cli.main", "cli", "main"),
]


class Tracer:
    """Records spans of the traced names while installed."""

    def __init__(self):
        # (span id, parent id or -1, name, start ns, end ns)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, local, ids = self.spans, self._local, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))

        return traced

    def install(self):
        """Wrap every target that still exists; record the others as absent."""
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "mmjoint"
                                         or key.startswith("mmjoint."))]
        for metric, module_name, attr_path in TARGETS:
            try:
                owner = importlib.import_module(f"mmjoint.{module_name}")
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                if parents:  # a classmethod: wrap its function on the class
                    raw = owner.__dict__[attr].__func__
                elif isinstance(original, type):  # a class: wrap __init__
                    raw = original.__dict__["__init__"]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(metric)
                continue
            if parents:
                self._patch(owner, attr, owner.__dict__[attr],
                            classmethod(self._wrap(metric, raw)))
            elif isinstance(original, type):
                self._patch(original, "__init__", raw, self._wrap(metric, raw))
            else:
                wrapped = self._wrap(metric, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per traced name: calls, total seconds and self seconds."""
        child_ns = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        for span_id, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += end - start - child_ns[span_id]
        return {
            name: {"calls": calls[name], "s": total[name] * 1e-9,
                   "self_s": self_ns[name] * 1e-9}
            for name in calls
        }

    def write(self, path: Path):
        """Write every span as CSV, times in ns from the first span."""
        t0 = min((s[3] for s in self.spans), default=0)
        lines = ["id,parent,name,start_ns,end_ns"]
        lines += [f"{i},{p},{name},{s - t0},{e - t0}"
                  for i, p, name, s, e in sorted(self.spans)]
        path.write_text("\n".join(lines) + "\n")
