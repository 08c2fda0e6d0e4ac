"""Process footprint: ``scipy.special`` loads on the first Gamma tail only.

``scipy.special`` about doubles a bare process's resident memory, and only
Taily's Gamma tails use it; ``scipy.stats``, three times its size, never
loads.  Each case is a fresh interpreter, since a module, once imported,
stays in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
TAILY = (
    "from repro.index import Document, IndexBuilder, TermStatsIndex; "
    "from repro.predictors.gamma_quality import TailyQualityEstimator; "
    "from repro.text import WhitespaceAnalyzer; "
    "builder = IndexBuilder(0, analyzer=WhitespaceAnalyzer()); "
    "builder.add_all(Document(doc_id=i, text=text) "
    "for i, text in enumerate(['a b b', 'a c', 'b c c'])); "
    "estimator = TailyQualityEstimator([TermStatsIndex(builder.build(), k=1)]); "
    "before = 'scipy' in sys.modules; "
    "estimator.estimate(['a', 'b']); "
    "print(before, 'scipy.special' in sys.modules, 'scipy.stats' in sys.modules)"
)
#: case -> (code run in a fresh interpreter, its output)
CASES = {
    "import-everything": (
        "import sys, repro, repro.cli, repro.experiments; "
        "print('scipy' in sys.modules)",
        "False",
    ),
    "first-taily-estimate": ("import sys; " + TAILY, "False True False"),
}


@pytest.fixture(scope="module")
def probed():
    """Every case's output; the interpreters start side by side."""
    running = {
        case: subprocess.Popen(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for case, (code, _) in CASES.items()
    }
    outputs = {}
    for case, process in running.items():
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, err
        outputs[case] = out.strip()
    return outputs


@pytest.mark.parametrize("case", CASES)
def test_scipy_loaded_only_by_gamma_tails(probed, case):
    assert probed[case] == CASES[case][1]
