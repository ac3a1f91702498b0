"""README.md's citations of the suite and of the BENCH files resolve.

The README cites test files, test functions and frozen tables of the
suite, and keys of committed BENCH_prNN.json files. A test renamed or
deleted, or a key cited from the wrong file, would leave it pointing at
nothing. These checks read files only: they import no test module and
run no simulation. A test is what pytest collects by its default rules:
a test* function at the top of a tests/test_*.py file, or a test* method
of a Test* class there.
"""
import ast
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def module_names(path: Path) -> tuple[set[str], set[str]]:
    """The tests pytest collects from a test file, and its top-level names."""
    tests, names = set(), set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        names.add(node.name)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            tests.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            tests |= {f.name for f in node.body
                      if isinstance(f, ast.FunctionDef) and f.name.startswith("test")}
    return tests, names


MODULES = {path.stem: module_names(path)
           for path in sorted((ROOT / "tests").glob("test_*.py"))}


def cited(pattern: str) -> list:
    found = sorted(set(re.findall(pattern, README)))
    assert found, f"README cites nothing matching {pattern!r}"
    return found


@pytest.mark.parametrize("path", cited(r"\btests/[\w/]+\.py\b"))
def test_cited_test_files_exist(path):
    # scripts such as tests/freeze_tau0_roots.py need only exist; a test
    # file must hold tests
    assert (ROOT / path).is_file()
    stem = Path(path).stem
    if stem.startswith("test_"):
        assert MODULES[stem][0], f"{path} holds no test"


@pytest.mark.parametrize("name", cited(r"`(test_\w+(?:\.\w+)?)`"))
def test_cited_test_names_are_collected(name):
    # `test_x` names a collected test; `test_module.NAME` a top-level name
    # of tests/test_module.py
    if "." in name:
        module, attr = name.split(".")
        assert module in MODULES and attr in MODULES[module][1], name
    else:
        assert any(name in tests for tests, _ in MODULES.values()), name


@pytest.mark.parametrize("bench, key", cited(r"`(BENCH_pr\d+\.json)`,\s+`(\w+)`"))
def test_cited_bench_keys_exist(bench, key):
    # "(`BENCH_prNN.json`, `key`)" cites one top-level key of that file
    assert key in json.loads((ROOT / bench).read_text()), (bench, key)


@pytest.mark.parametrize("bench", cited(r"`(BENCH_pr\d+\.json)`"))
def test_cited_bench_files_exist(bench):
    assert (ROOT / bench).is_file()
