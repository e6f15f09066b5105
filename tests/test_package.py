"""The package namespace: the union of the six library modules' public names."""

import subprocess
import sys

import ratsurf
from ratsurf import cohom, conditions, errors, picard, powerseries, theta

MODULES = (picard, cohom, conditions, powerseries, theta, errors)


def test_all_is_the_sorted_union_of_the_modules_public_names():
    union = [name for module in MODULES for name in module.__all__]
    assert len(union) == len(set(union))
    assert ratsurf.__all__ == sorted(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ratsurf, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ratsurf import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ratsurf.__all__)
    for name in ratsurf.__all__:
        assert namespace[name] is getattr(ratsurf, name), name


def test_version():
    assert ratsurf.__version__ == "0.1.0"


def test_attributes_of_a_freshly_imported_package():
    # the submodules resolve as attributes after a bare `import ratsurf`, and
    # an unknown name is an AttributeError
    probe = """
import sys
import ratsurf
assert ratsurf.theta is sys.modules["ratsurf.theta"]
assert ratsurf.picard is sys.modules["ratsurf.picard"]
assert ratsurf.divisor is ratsurf.picard.divisor
try:
    ratsurf.no_such_name
except AttributeError as exc:
    print(exc)
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "no_such_name" in proc.stdout
