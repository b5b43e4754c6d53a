"""Every import in the package and its tests names something CI installs.

CI installs only numpy, pytest and hypothesis, so a stray import of a
package that merely happens to be present locally would pass here and fail
there.  Relative imports within the package are allowed, except that the
series oracle takes nothing from the closed forms.  The tests may also import
their own helper modules, the ``tests/_*.py`` files, of which the exact series
reference takes nothing from the package.
"""

import ast
import sys
from pathlib import Path

import pytest

from magicbch import errors

ROOT = Path(__file__).resolve().parent.parent
SRC_ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
TESTS_ALLOWED = SRC_ALLOWED | {"pytest", "hypothesis", "magicbch"}
TESTS_ALLOWED |= {path.stem for path in (ROOT / "tests").glob("_*.py")}


def imported_packages(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize(
    "pattern, allowed", [("src/**/*.py", SRC_ALLOWED), ("tests/*.py", TESTS_ALLOWED)]
)
def test_only_ci_dependencies_are_imported(pattern, allowed):
    paths = sorted(ROOT.glob(pattern))
    assert paths
    stray = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in paths
        for name in imported_packages(path)
        if name not in allowed
    ]
    assert stray == []


def package_imports(path):
    # (submodule, name) for each name a module takes from the package, "" for the package
    # itself; a plain import of the package or a submodule takes "*"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "magicbch"):
            module = (node.module or "") if node.level else node.module.partition(".")[2]
            yield from ((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, "*") for a in node.names if a.name.partition(".")[0] == "magicbch")


def test_the_oracle_shares_no_code_with_the_closed_forms():
    # the oracle is an independent reference only while it calls none of the closed
    # forms: it may take the public-name table, the number reader, the overflow
    # refusal, the Frobenius norm and the error classes
    allowed = {("", "_MODULES"), ("algebra", "_finite"), ("algebra", "_numbers"), ("algebra", "frobenius_norm")}
    allowed |= {("errors", name) for name, cls in vars(errors).items() if isinstance(cls, type)}
    taken = list(package_imports(ROOT / "src" / "magicbch" / "oracle.py"))
    assert ("algebra", "frobenius_norm") in taken
    assert [entry for entry in taken if entry not in allowed] == []


def test_the_series_reference_shares_no_code_with_the_package():
    # the exact series that the twin kernels are held to is summed with no code of
    # the package (the twin builder takes _scalar itself), and none of the three
    # modules of the exact check imports NumPy
    assert list(package_imports(ROOT / "tests" / "_series.py")) == []
    assert list(package_imports(ROOT / "tests" / "_twins.py")) == [("", "_scalar")]
    for name in ("_series.py", "_twins.py", "test_exact_series.py"):
        assert "numpy" not in set(imported_packages(ROOT / "tests" / name)), name
