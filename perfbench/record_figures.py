#!/usr/bin/env python3
"""Record the simulated Figs 3-10 times that figures-simulate checks.

Run once from the repository root, on the commit the benchmark was
defined on, and commit the result::

    python3 perfbench/record_figures.py

It writes perfbench/expected_figures.json: per scale, per kernel, the
simulated times of every program version at the default seed.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.experiments.harness import run_kernel_experiment  # noqa: E402
from workloads import (DEFAULT_SEED, FIGURE_EXTENTS, figure_specs,  # noqa: E402
                       simulated_times)


def main() -> None:
    recorded = {
        scale: {spec.name: simulated_times(run_kernel_experiment(spec))
                for spec in figure_specs(DEFAULT_SEED, scale)}
        for scale in FIGURE_EXTENTS
    }
    path = HERE / "expected_figures.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
