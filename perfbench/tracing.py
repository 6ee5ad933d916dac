"""Spans around calls into stormsim's public functions, recorded from outside.

The tracer replaces module attributes that callers look up (for example
``stormsim.kde.sample_conditional``, or ``stormsim.engine.destination_point``
that engine imported by name) with timing wrappers, and restores them
afterwards.  Nothing inside the package changes.  Each span adds its duration
to its caller's child time, so a function's self time is its span time minus
the time its traced callees cover.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

# (module, attribute path) of every traced function, grouped by layer.
TARGETS = (
    ("catalog", "load_catalog"), ("catalog", "build_grid"),
    ("catalog", "destination_point"), ("catalog", "grid_cell"),
    ("kde", "sample_conditional"), ("kde", "sample_joint"),
    ("kde", "cdf_1d"), ("kde", "fit_kde"),
    ("evt", "to_laplace"), ("evt", "from_laplace"), ("evt", "fit_mixture"),
    ("evt", "fit_gpd"), ("evt", "mean_residual_life"),
    ("condex", "fit_condex"), ("condex", "step_tail_chain"),
    ("preprocess", "fit_preprocess"), ("preprocess", "to_residual"),
    ("preprocess", "from_residual"),
    ("gam", "build_design"), ("gam", "fit_gam"), ("gam", "hazard"),
    ("engine", "fit_all"), ("engine", "laplace_tracks"), ("engine", "simulate_catalog"),
    ("engine", "simulate_storm"), ("engine", "simulate_genesis"),
    ("engine", "propagate_step"), ("engine", "vorticity_step"),
    ("engine", "bundle_to_json"), ("engine", "bundle_from_json"),
    ("risk", "exceedance_prob"), ("risk", "return_period"), ("risk", "return_level"),
    ("risk", "Region.contains"),
    ("cli", "cmd_fit"), ("cli", "cmd_simulate"), ("cli", "cmd_risk"),
)

# Functions whose first argument's size is recorded as work elements.
ELEMENT_COUNTS = {"evt.to_laplace"}


class _Stat:
    __slots__ = ("calls", "wall", "self_time", "elements")

    def __init__(self):
        self.calls = 0
        self.wall = 0.0
        self.self_time = 0.0
        self.elements = 0


class Tracer:
    """Installs timing wrappers on :data:`TARGETS`; use as a context manager."""

    def __init__(self):
        self.stats = {f"{mod}.{attr}": _Stat() for mod, attr in TARGETS}
        self._stack: list[float] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        count_elements = name in ELEMENT_COUNTS

        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.wall += elapsed
                stat.self_time += elapsed - child
                if count_elements and args:
                    stat.elements += int(np.size(args[0]))
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for mod_name, _ in TARGETS:
            importlib.import_module(f"stormsim.{mod_name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "stormsim" or key.startswith("stormsim."))]
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            owner = sys.modules[f"stormsim.{mod_name}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, original), original)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            # every module that holds the function under any name, and
            # dispatch tables such as cli.COMMANDS
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._undo.append((value.__setitem__, k, original))
        return self

    def _set(self, obj, key, new, old):
        setattr(obj, key, new)
        self._undo.append((lambda k, v, o=obj: setattr(o, k, v), key, old))

    def __exit__(self, *exc):
        for setter, key, old in reversed(self._undo):
            setter(key, old)
        self._undo.clear()
        return False

    def metrics(self) -> dict[str, tuple[float, str]]:
        """calls, self_s and (for to_laplace) elements for every target."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.self_s"] = (st.self_time, "s")
            if name in ELEMENT_COUNTS:
                out[f"{name}.elements"] = (st.elements, "count")
        return out

    def us_per_call(self, name: str) -> float:
        st = self.stats[name]
        return 1e6 * st.self_time / st.calls if st.calls else 0.0

    def wall(self, name: str) -> float:
        return self.stats[name].wall
