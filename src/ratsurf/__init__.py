"""Exact intersection theory, line-bundle cohomology, and section-count
generating series on rational surfaces (the plane, Hirzebruch surfaces, and
their one-point blowups), over arbitrary-precision integers.

The package namespace is the union of the submodules' public names.  They
load on the first read of a name the package has not bound yet, so importing
one submodule, `ratsurf.cli` included, compiles only what that one needs."""

__version__ = "0.1.0"


def __getattr__(name: str):
    """Load the six submodules, bind their public names and `__all__` (PEP 562)."""
    namespace = globals()
    if "__all__" not in namespace:
        from importlib import import_module

        names = "picard", "cohom", "conditions", "powerseries", "theta", "errors"
        modules = [import_module(f"{__name__}.{module}") for module in names]
        namespace.update((n, getattr(m, n)) for m in modules for n in m.__all__)
        namespace["__all__"] = sorted(n for m in modules for n in m.__all__)
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
