"""Layer-by-layer tracing of the sectorrelay package, applied from outside.

``install`` wraps every public function of the traced modules, and every
public method of the classes they define, then rebinds each wrapper under
every name a package module looks it up by: the defining module, the
copies that ``from .model import ...`` made in other modules, and values
of module-level dicts such as the CLI's handler table. Nothing inside the
package changes.

Each wrapper counts calls and adds up inclusive and self time. Self time
is a call's duration minus the time its traced children took, kept with
one accumulator per active call, so no per-call span is stored: a
``fig34`` run makes about a million traced calls.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import time
from collections import defaultdict

#: The package modules whose public functions are traced, one per layer.
LAYERS = ("cli", "optimize", "analytic", "specfun", "model", "simulate")


class Tracer:
    """Call counts, inclusive and self time per traced name, plus counters.

    ``stats[name]`` is ``[calls, inclusive_s, self_s]``. ``counters`` holds
    the quantities the observers read from arguments and results.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._active: list[list[float]] = []

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped to record under ``name``.

        ``observe(counters, args, kwargs, result, elapsed)`` runs after each
        call; ``result`` is None when the call raised.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        active = self._active
        clock = self.clock
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            active.append(children)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                active.pop()
                if active:
                    active[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children[0]
                if observe is not None:
                    observe(counters, args, kwargs, result, elapsed)

        return traced


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _variant_name(variant) -> str:
    return getattr(variant, "value", "directional")


def _observe_optimize_joint(counters, args, kwargs, result, elapsed):
    variant = _variant_name(_arg(args, kwargs, 1, "variant"))
    counters[f"optimize_joint.{variant}.calls"] += 1
    counters[f"optimize_joint.{variant}.s"] += elapsed
    if result is not None:
        counters["optimize_joint.returned"] += 1
        counters["optimize_joint.iterations"] += result.iterations


def _observe_quadrature(counters, args, kwargs, result, elapsed):
    if result is None:
        return
    counters["integrate_semi_infinite.evaluations"] += result.evaluations
    counters["integrate_semi_infinite.abs_error_max"] = max(
        counters["integrate_semi_infinite.abs_error_max"], result.abs_error_estimate
    )


def _observe_run_trial(counters, args, kwargs, result, elapsed):
    if result is not None:
        counters["run_trial.relay_found"] += bool(result.relay_found)


def _observe_substream(counters, args, kwargs, result, elapsed):
    if _arg(args, kwargs, 3, "attempt", 0) > 0:
        counters["redraws"] += 1


def _observe_sample_ppp(counters, args, kwargs, result, elapsed):
    if result is not None:
        counters["sample_ppp.points"] += len(result)


def _observe_sector_covers(counters, args, kwargs, result, elapsed):
    if result is not None:
        counters["interferers.covering"] += int(result.sum())


def _observe_sir_at(counters, args, kwargs, result, elapsed):
    if result is None:
        return
    drawn = int(_arg(args, kwargs, 3, "config").is_transmitter.sum())
    counters["interferers.drawn"] += drawn
    if _variant_name(_arg(args, kwargs, 6, "variant")) != "directional":
        counters["interferers.covering"] += drawn  # every transmitter interferes


OBSERVERS = {
    "optimize.optimize_joint": _observe_optimize_joint,
    "specfun.integrate_semi_infinite": _observe_quadrature,
    "simulate.run_trial": _observe_run_trial,
    "simulate.substream": _observe_substream,
    "simulate.sample_ppp": _observe_sample_ppp,
    "simulate.sector_covers": _observe_sector_covers,
    "simulate.sir_at": _observe_sir_at,
}


def _rebind(modules, original, wrapped) -> None:
    """Replace ``original`` by ``wrapped`` wherever a module holds it."""
    for module in modules:
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapped


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions and methods of every layer; return the names."""
    modules = [
        m for n, m in list(sys.modules.items())
        if n == "sectorrelay" or n.startswith("sectorrelay.")
    ]
    names = []
    for layer in LAYERS:
        module = sys.modules[f"sectorrelay.{layer}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                _rebind(modules, obj, tracer.wrap(name, obj, OBSERVERS.get(name)))
                names.append(name)
            elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                for member_name, member in list(vars(obj).items()):
                    if member_name.startswith("_"):
                        continue
                    name = f"{layer}.{attr}.{member_name}"
                    if inspect.isfunction(member):
                        setattr(obj, member_name, tracer.wrap(name, member))
                    elif isinstance(member, classmethod):
                        setattr(obj, member_name, classmethod(tracer.wrap(name, member.__func__)))
                    else:
                        continue
                    names.append(name)
    return names
