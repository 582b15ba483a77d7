"""Regenerate bench/golden.json, the outputs every benchmark run is checked
against, from the library at the current commit:

    python3 bench/make_golden.py

Suite and series-bigp digests are kept for each of SEEDS; scan-extend keeps one
digest per cell of the ladder, computed with ``conjecture_value`` so that
it also covers cells the scan itself fails to persist.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads as wl  # noqa: E402
from supercongruences import scan, suite, verifiers  # noqa: E402

SEEDS = range(32)


def suite_digest(seed: int) -> str:
    reports = suite.run_suite(suite.SuiteConfig(seed=seed, jobs=wl.JOBS))
    assert suite.all_pass(reports), f"suite seed {seed} has a failing case"
    return wl.report_digest(suite.render(reports, "json"))


def bigp_digest(seed: int) -> str:
    reports = [verifiers.run_case(case) for case in wl.bigp_cases(seed)]
    assert suite.all_pass(reports), f"series-bigp seed {seed} has a failing case"
    return wl.report_digest(suite.to_json(reports))


def main() -> int:
    golden = {
        "suite": {str(seed): suite_digest(seed) for seed in SEEDS},
        "series-bigp": {str(seed): bigp_digest(seed) for seed in SEEDS},
        "scan-extend": {
            f"{d} {n}": wl.sha(wl.cell_record(d, n, scan.conjecture_value(d, n))) for d, n in wl.scan_ladder()
        },
        "probes": wl.run_probes()[1],
    }
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
