"""The BLAS pin: whether ``repro`` knows BLAS runs single-threaded, and
``process_map``'s refusal to nest.

Each pin case is a fresh interpreter, since the decision is taken once,
when ``repro`` is first imported.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.host as host
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


def pid_of(job):
    return os.getpid()


def nested_map(job):
    """A job that maps its own jobs: which processes ran them."""
    return os.getpid(), host.IN_WORKER, list(host.process_map(pid_of, range(4)))


def test_process_map_does_not_nest(monkeypatch):
    """A ``process_map`` inside a worker runs inline: every inner job runs
    in the worker that asked, and no grandchild is forked."""
    if not host.BLAS_SINGLE_THREADED:
        pytest.skip("BLAS is not pinned to one thread, so process_map never forks")
    monkeypatch.setattr(host, "usable_cpus", lambda: 2)

    def hung(signum, frame):
        raise TimeoutError("process_map did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        results = list(host.process_map(nested_map, range(2)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(results) == 2
    for worker, in_worker, inner in results:
        assert worker != os.getpid() and in_worker
        assert inner == [worker] * 4
    assert not host.IN_WORKER
    assert multiprocessing.active_children() == []
