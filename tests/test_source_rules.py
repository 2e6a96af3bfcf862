"""Rules the library's source keeps: no ``except`` broader than the errors it expects,
no import that is neither used nor exported, no dataclass whose fields can be reassigned,
no access to the process environment, no panel width or band Cholesky outside ``linsolve``, no
SVD kernel outside ``analysis``, and no lattice symmetry map outside ``mesh`` and ``forward``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "pixelinv").glob("*.py"))
BROAD = {"Exception", "BaseException"}


def _names(node) -> set:
    """The names ``node`` refers to: a name, an attribute, or a tuple of them."""
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    return {getattr(item, "id", getattr(item, "attr", None)) for item in items}


def broad_catches(source: str) -> list[int]:
    """Lines of a bare ``except:``, an ``except`` naming ``Exception`` or
    ``BaseException`` (alone or in a tuple) and a ``suppress`` of either."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and (node.type is None or _names(node.type) & BROAD):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and "suppress" in _names(node.func):
            if any(_names(arg) & BROAD for arg in node.args):
                lines.append(node.lineno)
    return lines


def test_rule_finds_every_broad_form():
    source = """
try:
    f()
except:
    pass
try:
    f()
except Exception:
    pass
try:
    f()
except (ValueError, builtins.BaseException) as err:
    pass
with contextlib.suppress(KeyError, Exception):
    f()
with suppress(BaseException):
    f()
try:
    f()
except (np.linalg.LinAlgError, ValueError):
    pass
with contextlib.suppress(KeyError):
    f()
"""
    assert broad_catches(source) == [4, 8, 12, 14, 16]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_broad_except(path):
    assert broad_catches(path.read_text(encoding="utf-8")) == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in its ``__all__``. An
    import on a line with a ``# noqa`` comment and ``from __future__`` are exempt."""
    tree, lines = ast.parse(source), source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(name)
    return unused


def test_rule_finds_every_unused_import():
    source = """
from __future__ import annotations
import math
import os.path
import numpy as np
from . import linsolve
from .mesh import (
    DiskSpec,
    build_mesh,  # noqa: F401  (kept for a tracer)
    refine,
)
from .assembly import check_sigma as checked
from .forward import forward_matrix, forward_pairs

__all__ = ["forward_pairs"]


def f(x: DiskSpec):
    return np.sqrt(math.pi) + linsolve.DEFAULT_TOL
"""
    assert unused_imports(source) == ["os", "refine", "checked", "forward_matrix"]


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "__init__.py"], ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unfrozen_dataclasses(source: str) -> list[int]:
    """Lines of a ``@dataclass`` decorator, bare, called or reached as an
    attribute, that does not pass ``frozen=True``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        for decorator in node.decorator_list if isinstance(node, ast.ClassDef) else []:
            call = decorator if isinstance(decorator, ast.Call) else None
            if "dataclass" in _names(call.func if call else decorator):
                keywords = call.keywords if call else []
                if not any(kw.arg == "frozen" and getattr(kw.value, "value", None) is True for kw in keywords):
                    lines.append(decorator.lineno)
    return lines


def test_rule_finds_every_unfrozen_dataclass():
    source = """
@dataclass
class A:
    x: int
@dataclass()
class B:
    x: int
@dataclasses.dataclass(eq=False)
class C:
    x: int
@dataclass(frozen=False)
class D:
    x: int
@dataclass(frozen=True, eq=False)
class E:
    x: int
@dataclasses.dataclass(frozen=True)
class F:
    x: int
@functools.total_ordering
class G:
    x: int
"""
    assert unfrozen_dataclasses(source) == [2, 5, 8, 11]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_dataclass_is_frozen(path):
    assert unfrozen_dataclasses(path.read_text(encoding="utf-8")) == []


# The names through which a module reads or writes the process environment.
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_access(source: str) -> list[int]:
    """Lines that reach the process environment: an attribute, a ``from`` import or a
    ``getattr`` of one of the :data:`ENVIRONMENT` names, on ``os`` or on anything else."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and {alias.name for alias in node.names} & ENVIRONMENT:
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" and any(
                getattr(arg, "value", None) in ENVIRONMENT for arg in node.args[1:2]):
            lines.append(node.lineno)
    return sorted(lines)


def test_rule_finds_every_environment_access():
    source = """
import os
from os import environ
from os import path, getenv as read
threads = os.environ["OPENBLAS_NUM_THREADS"]
os.environ.update(OMP_NUM_THREADS="1")
threads = os.getenv("OMP_NUM_THREADS")
os.putenv("OMP_NUM_THREADS", "1")
import os as system
system.environb
getattr(os, "environ")
os.path.join("a", "b")
environment = {"environ": 1}
environment.get("getenv")
getattr(os, "sep")
"""
    assert environment_access(source) == [3, 4, 5, 6, 7, 8, 10, 11]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_environment_access(path):
    assert environment_access(path.read_text(encoding="utf-8")) == []


# The band solver's seam: only ``linsolve`` sets or reads the panel width and calls LAPACK's band Cholesky.
SEAM = {"_PANEL", "dpbtrf"}


def seam_uses(source: str, seam: set = SEAM) -> list[int]:
    """Lines that name one of the ``seam`` names: a name, an attribute or an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Name, ast.Attribute)) and _names(node) & seam:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and {a.name.split(".")[-1] for a in node.names} & seam:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_rule_finds_every_seam_use():
    source = """
from scipy.linalg.lapack import dpbtrf
from scipy.linalg.lapack import dpbtrs as solve
from scipy.linalg import lapack
factor = lapack.dpbtrf(band)
width = linsolve._PANEL
_PANEL = 56
step = max(1, _PANEL // 8)
panels = "_PANEL"
from .linsolve import _PANEL as width
"""
    assert seam_uses(source) == [2, 5, 6, 7, 8, 10]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_panel_width_and_band_cholesky_stay_in_linsolve(path):
    uses = seam_uses(path.read_text(encoding="utf-8"))
    assert bool(uses) == (path.name == "linsolve.py"), uses


# The SVD's seam: only ``analysis`` calls LAPACK's pivoted QR and SVD, through ``singular_values``.
SVD = {"dgeqp3", "dgesvd"}


def test_rule_finds_every_svd_kernel_use():
    source = """
from scipy.linalg.lapack import dgesvd
from scipy.linalg import lapack
R = lapack.dgeqp3(A)
s = lapack.dgesdd(A)
kernel = "dgesvd"
from scipy.linalg.lapack import dgeqp3 as qr
"""
    assert seam_uses(source, SVD) == [2, 4, 7]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_svd_kernel_stays_in_analysis(path):
    uses = seam_uses(path.read_text(encoding="utf-8"), SVD)
    assert bool(uses) == (path.name == "analysis.py"), uses


# The symmetry seam: the lattice maps are named only where they are defined (``mesh``) and where
# ``forward_matrix``'s group is decided (``forward``), so no other module builds a group of its own.
SYMMETRY = {"lattice_symmetries"}


def test_rule_finds_every_lattice_map_use():
    source = """
from .mesh import lattice_symmetries
from .mesh import lattice_symmetries as maps
from . import mesh
group = mesh.lattice_symmetries(4)
name = "lattice_symmetries"
pixels = lattice_symmetries(nx)[1:3]
symmetries = grid.symmetries()
"""
    assert seam_uses(source, SYMMETRY) == [2, 3, 5, 7]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_lattice_maps_stay_in_mesh_and_forward(path):
    uses = seam_uses(path.read_text(encoding="utf-8"), SYMMETRY)
    assert not uses or path.name in {"mesh.py", "forward.py"}, uses
