"""Per-layer spans for the traced benchmark run.

`install` wraps every public function of the traced `hahnpoly` modules and
every CLI command callback, and rebinds each wrapped name in every
`hahnpoly` module that imported it, so calls made inside the package
(`checks` calling `hahn.hahn_eval_all`, say) are recorded too.  A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from types import ModuleType

LAYERS = ("specfun", "hahn", "discrete_calculus", "expansion", "legendre_ref",
          "checks", "cli", "oracle_exact")

# calls whose first argument is the degree of one dd recurrence sweep
SWEEPS = ("hahn.hahn_eval_all", "hahn.hahn_eval_recurrence")


class Tracer:
    """Call counts and self time per span name, plus the dd sweep degrees."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.dd_steps = 0
        self._child_s: list[float] = []

    def wrap(self, name: str, fn):
        count_steps = name in SWEEPS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if count_steps:
                self.dd_steps += args[0]
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._child_s.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child
                if self._child_s:
                    self._child_s[-1] += elapsed

        return span

    def stats(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "dd_steps": self.dd_steps}


def public_functions(module: ModuleType) -> dict[str, object]:
    """Public functions defined in `module` itself (not imported into it)."""
    return {
        name: obj for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def install(tracer: Tracer) -> dict[str, object]:
    """Wrap the traced layers of the imported `hahnpoly`; returns the
    wrappers by span name."""
    layers = {layer: importlib.import_module(f"hahnpoly.{layer}") for layer in LAYERS}
    package = [m for name, m in sys.modules.items()
               if m is not None and (name == "hahnpoly" or name.startswith("hahnpoly."))]
    wrappers: dict[str, object] = {}
    for layer, module in layers.items():
        for name, fn in public_functions(module).items():
            wrapper = tracer.wrap(f"{layer}.{name}", fn)
            wrappers[f"{layer}.{name}"] = wrapper
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
    for command in layers["cli"].main.commands.values():
        name = f"cli.{command.name}"
        command.callback = wrappers[name] = tracer.wrap(name, command.callback)
    return wrappers
