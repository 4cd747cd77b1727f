"""Package hygiene: every exported name of every module exists."""

import importlib
import pkgutil

import pytest

import spoofdet

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(spoofdet.__path__)
)


def test_modules_found():
    assert {"channel", "experiments", "extractor", "link"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spoofdet.{name}")
    exported = getattr(module, "__all__", ())
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []
