import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dorsalhash
from dorsalhash.network import FixedFilterNet, NetworkConfig

SRC = str(Path(dorsalhash.__file__).resolve().parents[1])


def run_fresh(*args: str, env: dict[str, str | None] | None = None, cwd=None) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports this checkout's
    package, its output captured as text.  ``env`` sets variables over this
    process's environment, and a None value unsets one."""
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    for name, value in (env or {}).items():
        environ.pop(name, None)
        if value is not None:
            environ[name] = value
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=environ, cwd=cwd,
                          timeout=300, check=False)


@pytest.fixture(scope="session")
def tiny_config():
    # Smallest legal geometry: keeps unit tests fast while exercising every stage.
    return NetworkConfig(num_classes=3, input_height=16, input_width=32,
                         fc1_dim=96, fc2_dim=128, lbc_seed=7)


@pytest.fixture(scope="session")
def tiny_net(tiny_config):
    return FixedFilterNet.build(tiny_config)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
