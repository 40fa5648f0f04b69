"""Simulation and statistical verification of exponentially noise-to-state
stable stochastic systems: closed-form crossing-time bounds, seeded
Euler-Maruyama simulation, loop extraction and one-sided statistical checks.

The package exports the names in its modules' ``__all__``.  They, and the
modules that define them, are imported on first access (PEP 562), so
``import nss_lab.slln`` loads numpy and ``slln`` alone.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# searched in this order; slln comes first because it imports no sibling
_MODULES = ("slln", "bounds", "model", "sim", "loops")


def __getattr__(name):
    if name in _MODULES:
        return _import_module(f".{name}", __name__)
    exports = []  # the exports of the modules searched so far
    for module_name in _MODULES:
        module = _import_module(f".{module_name}", __name__)
        if name in module.__all__:
            value = globals()[name] = getattr(module, name)  # later lookups skip this hook
            return value
        exports += module.__all__
    if name == "__all__":
        return exports
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")) | set(_MODULES))
