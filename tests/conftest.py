import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """Import perfbench/<name>.py under a private module name."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def perfbench():
    """The benchmark's workload list, report checker, span tracer and recorded invariants."""
    return SimpleNamespace(
        workloads=_load("workloads"),
        check=_load("check"),
        spans=_load("spans"),
        expected=json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8")),
    )
