"""The package namespace: the union of the six library modules' public names."""

import ast
import subprocess
import sys
from pathlib import Path

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


PUBLIC_NAMES = [
    "Branch", "ClassParseError", "CohomologyTable", "ConditionReport", "DECOMPOSITION_CAP",
    "Decomposition", "DivisorClass", "EnumerationCapError", "Genus2CohomologyCheck",
    "GradedBundle", "KIND_RULES", "Polynomial", "ProjectiveSpaceCohomology", "RatsurfError",
    "ScopeError", "SeriesCoefficients", "SheafClass", "Surface", "SurfaceKind", "ThetaContext",
    "ThetaSeries", "UnsupportedBranchError", "arithmetic_genus", "binom_polynomial", "binomial",
    "blowup_hirzebruch", "check_a1", "check_a2", "check_a3", "classify_branch",
    "cohomology_projective_space", "cohomology_table", "default_very_ample", "describe",
    "divisor", "enumerate_decompositions", "enumerate_effective_below", "euler_char",
    "euler_char_lambda", "euler_pairing", "expand_rational_gf", "format_divisor",
    "format_polynomial", "gf_coefficient", "h0_class", "h0_lambda",
    "higher_cohomology_vanishes", "hirzebruch", "intersect", "is_very_ample",
    "linear_system_dim", "moduli_dimension", "parse_divisor", "polynomial", "projective_plane",
    "refuse_zero_class", "step_failure", "surface_from_name", "theta_context",
    "theta_splitting", "verify_genus2_cohomology", "z_from_decomposition",
]


def test_public_surface_is_pinned():
    # a name added to or removed from the surface shows up in this list's diff
    assert len(PUBLIC_NAMES) == 62
    assert ratsurf.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ratsurf import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ratsurf.__all__)
    for name in ratsurf.__all__:
        assert namespace[name] is getattr(ratsurf, name), name


def test_every_public_callable_has_its_own_docstring():
    # a class's docstring must be written in its own body: an inherited one, or
    # the "Name(field, ...)" text a named tuple generates, does not count
    missing = []
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj):
                continue
            is_class = isinstance(obj, type)
            doc = vars(obj).get("__doc__") if is_class else obj.__doc__
            if not (doc and doc.strip()) or (is_class and doc.startswith(f"{name}(")):
                missing.append(f"{module.__name__}.{name}")
    assert not missing


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


def test_no_module_imports_a_name_it_does_not_use():
    # every name an import binds, at module level or inside a function, is
    # read as a Name somewhere in the same module; and every private
    # module-level function, class or assignment is read somewhere in the
    # package, as a Name or as an attribute
    private, read = set(), set()
    for path in sorted(Path(ratsurf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = (n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in imports
            if getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        assert imported <= used, (path.name, sorted(imported - used))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            private |= {(path.name, n) for n in names if n[:1] == "_" and n[:2] != "__"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert private, "no private module-level name was found"
    assert not sorted((f, n) for f, n in private if n not in read)
