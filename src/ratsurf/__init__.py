"""Exact intersection theory, line-bundle cohomology, and section-count
generating series on rational surfaces (the plane, Hirzebruch surfaces, and
their one-point blowups), over arbitrary-precision integers.

The package namespace is the union of the submodules' public names."""

from . import cohom, conditions, errors, picard, powerseries, theta

__version__ = "0.1.0"

_MODULES = (picard, cohom, conditions, powerseries, theta, errors)
globals().update((name, getattr(m, name)) for m in _MODULES for name in m.__all__)
__all__ = sorted(name for m in _MODULES for name in m.__all__)
