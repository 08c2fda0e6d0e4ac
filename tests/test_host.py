"""The BLAS pin: whether ``repro`` knows BLAS runs single-threaded.

Each case is a fresh interpreter, since the decision is taken once, when
``repro`` is first imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.host import BLAS_THREAD_VARIABLES

SRC = str(Path(repro.__file__).resolve().parents[1])
PROBE = (
    "import os, repro.host as host; "
    "print(host.BLAS_SINGLE_THREADED, "
    "*(os.environ[name] for name in host.BLAS_THREAD_VARIABLES))"
)
#: case -> (variables set beforehand, code run before the probe, its output)
CASES = {
    "repro-first-unset": ({}, "", "True 1 1 1"),
    "bench-order": (
        dict.fromkeys(BLAS_THREAD_VARIABLES, "1"), "import numpy; ", "True 1 1 1"
    ),
    "numpy-first-unset": ({}, "import numpy; ", "False 1 1 1"),
    "user-set-4": ({"OPENBLAS_NUM_THREADS": "4"}, "", "False 4 1 1"),
}


@pytest.fixture(scope="module")
def probed():
    """Every case's probe output; the interpreters start side by side."""
    running = {}
    for case, (variables, before_repro, _) in CASES.items():
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
        env.update(variables, PYTHONPATH=SRC)
        running[case] = subprocess.Popen(
            [sys.executable, "-c", before_repro + PROBE],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    outputs = {}
    for case, process in running.items():
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, err
        outputs[case] = out.strip()
    return outputs


@pytest.mark.parametrize("case", CASES)
def test_single_threaded_decision(probed, case):
    assert probed[case] == CASES[case][2]
