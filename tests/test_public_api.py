"""The package's public names: listed once, in their modules, and importable."""

import ast
from pathlib import Path

import pytest

import spotspectra
from spotspectra import errors, estimators, harness, hdtests, rmt, simkit, spectra

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = (errors, estimators, harness, hdtests, rmt, simkit, spectra)


def _names_imported_from_package(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "spotspectra"
        for alias in node.names
    }


def test_every_public_name_resolves():
    for name in spotspectra.__all__:
        assert hasattr(spotspectra, name), name


def test_package_list_is_the_union_of_the_module_lists():
    listed = [name for module in _MODULES for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert sorted(spotspectra.__all__) == sorted(listed + ["__version__"])
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(spotspectra, name) is getattr(module, name), name


@pytest.mark.parametrize("script", ["tracing.py", "workloads.py"])
def test_benchmark_imports_are_public(script):
    names = _names_imported_from_package((_ROOT / "perfbench" / script).read_text())
    assert {"rescale", "spot_vol_from_window"} <= names
    assert names <= set(spotspectra.__all__)


def test_readme_example_imports_are_public():
    readme = (_ROOT / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    names = _names_imported_from_package(example)
    assert "increments" in names
    assert names <= set(spotspectra.__all__)
