"""Full policy comparison — the paper's evaluation (Figs. 10-15), condensed.

Replays the Wikipedia- and Lucene-style traces under every policy
(baselines + Cottage + both ablation variants) and prints the comparison
tables plus the headline paper-vs-measured numbers.  Use small scale for a
faithful run (~2 minutes) or unit for a fast look:

    python examples/trace_comparison.py [unit|small|full]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import ALL_POLICIES, SCALES
from repro.experiments import Testbed, headline
from repro.metrics import comparison_table


def main() -> None:
    scale_name = sys.argv[1] if len(sys.argv) > 1 else "small"
    if scale_name not in SCALES:
        raise SystemExit(f"unknown scale {scale_name!r}; use unit, small or full")
    scale = SCALES[scale_name]()
    print(f"Building {scale_name}-scale testbed "
          f"({scale.corpus.n_docs} docs, {scale.n_shards} ISNs)...")
    testbed = Testbed.build(scale)

    for trace in (testbed.wikipedia_trace, testbed.lucene_trace):
        print()
        summaries = [testbed.summarize(trace, name) for name in ALL_POLICIES]
        print(comparison_table(summaries, title=f"{trace.name} trace"))

    print()
    print(headline.format_report(headline.run(testbed)))


if __name__ == "__main__":
    main()
