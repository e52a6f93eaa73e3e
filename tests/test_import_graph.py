"""The import graph: loading the kernel or the service loads only what runs.

``repro.observability`` and ``repro.serve`` resolve their public names on
first use, so importing the compiled kernel (which reads
``observability.cachestats``) or the sort service must not drag in the HTTP
exposition server, the SLO stack, the load generator or their standard
library dependencies.  The graph is read in a fresh interpreter: pytest and
the other tests have already imported most of the package here.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

HEAVY = (
    "ssl",
    "email",
    "http.server",
    "socketserver",
    "repro.observability.httpexpo",
    "repro.observability.slo",
    "repro.observability.tsdb",
    "repro.serve.frontend",
    "repro.serve.loadgen",
)


def _loaded_after(module: str) -> set[str]:
    """The module names a fresh interpreter holds after ``import module``."""
    code = f"import json, sys; import {module}; print(json.dumps(sorted(sys.modules)))"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out))


def test_kernel_import_loads_no_http_or_slo_stack():
    loaded = _loaded_after("repro.schedule.compiled")
    assert "repro.observability.cachestats" in loaded
    assert sorted(loaded.intersection(HEAVY)) == []


def test_service_import_loads_no_frontend_or_loadgen():
    loaded = _loaded_after("repro.serve.service")
    assert "asyncio" in loaded  # which imports ssl itself
    assert sorted(loaded.intersection(HEAVY) - {"ssl"}) == []


@pytest.mark.parametrize("package", ["repro.observability", "repro.serve"])
def test_every_public_name_resolves_to_its_submodule(package):
    pkg = importlib.import_module(package)
    assert sorted(pkg._EXPORTS) == sorted(pkg.__all__)
    listed = dir(pkg)
    for name in pkg.__all__:
        assert name in listed, name
        home = importlib.import_module(f"{package}.{pkg._EXPORTS[name]}")
        assert getattr(pkg, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
