"""Package hygiene: every exported name of every module exists, no module
imports another's private name, and importing the harness and running one
serial trial loads neither the ``link`` test oracle, nor the process-pool
modules, which only a run with more than one worker needs, nor ``yaml``,
which only reading or writing a YAML file needs."""

import ast
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


def test_no_module_imports_a_private_name():
    # A private name is an implementation detail of its own module.
    imported = []
    for name in MODULES:
        path = os.path.join(SRC, "spoofdet", f"{name}.py")
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        imported += [
            f"{name}: from {node.module} import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert imported == []


def loaded_by_harness_import(names):
    """Which of ``names`` a fresh interpreter holds after importing the
    harness and running one trial of the default cell, so no earlier test's
    imports count."""
    script = (
        f"import sys; sys.path.insert(0, {SRC!r})\n"
        "import spoofdet.experiments\n"
        "from spoofdet.scenario import ScenarioConfig\n"
        "spoofdet.experiments.run_single_trial(ScenarioConfig(), 0)\n"
        f"print(' '.join(n for n in {names!r} if n in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_harness_does_not_load_link_oracle():
    assert loaded_by_harness_import(["spoofdet.link"]) == []


def test_harness_does_not_load_the_process_pool():
    # A serial run never starts a pool, so it does not pay for importing one.
    assert loaded_by_harness_import(
        ["multiprocessing", "concurrent.futures"]
    ) == []


def test_a_trial_of_the_default_profile_does_not_load_yaml():
    # The default cluster profile is built in code, so a run that names no
    # YAML file never pays for importing the parser.
    assert loaded_by_harness_import(["yaml"]) == []
