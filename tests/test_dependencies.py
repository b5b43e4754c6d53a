"""Every import in the package and its tests names something CI installs.

CI installs only numpy, pytest and hypothesis, so a stray import of a
package that merely happens to be present locally would pass here and fail
there.  Relative imports within the package are always allowed.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
TESTS_ALLOWED = SRC_ALLOWED | {"pytest", "hypothesis", "magicbch"}


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
