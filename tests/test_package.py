"""Package hygiene: every exported name of every module exists, and the
harness does not load the ``link`` test oracle."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import spoofdet

SRC = os.path.dirname(os.path.dirname(spoofdet.__file__))
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


def test_harness_does_not_load_link_oracle():
    # A fresh interpreter, so no earlier test has imported the oracle.
    script = (
        f"import sys; sys.path.insert(0, {SRC!r})\n"
        "import spoofdet.experiments\n"
        "assert 'spoofdet.link' not in sys.modules, 'link loaded'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
