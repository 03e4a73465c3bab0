"""logicaltex benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/`` and the corpus from ``tests/corpusgen.py``.  The
workload itself runs in a child process (``workload.py``), so its peak
RSS is its own.  With ``--trace 0`` the result holds the end-to-end
metrics, set-up time included; with ``--trace 1`` it holds the
per-layer metrics of a traced run, import costs included.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 170
# Modules whose import cost is reported: the third-party ones cumulative
# (everything they pull in), the package's own modules self only.
THIRD_PARTY = ("numpy", "requests")
OWN_MODULES = ("logicaltex", "logicaltex.arxiv", "logicaltex.cli", "logicaltex.converter",
               "logicaltex.degrader", "logicaltex.detector", "logicaltex.lexer",
               "logicaltex.model", "logicaltex.validator")


def _probe(*interpreter_flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *interpreter_flags, str(HERE / "probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT)


def setup_seconds() -> float:
    """Median over fresh interpreters of import plus one warm-up conversion."""
    return statistics.median(float(_probe().stdout) for _ in range(SETUP_PROBES))


def import_ms() -> dict[str, float]:
    """Median per-module import cost from ``python -X importtime``."""
    runs: list[dict[str, float]] = []
    for _ in range(IMPORT_PROBES):
        costs: dict[str, float] = {}
        for line in _probe("-X", "importtime").stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own_us, cumulative_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name in THIRD_PARTY:
                costs[name] = int(cumulative_us) / 1000
            elif name in OWN_MODULES:
                costs[name] = int(own_us) / 1000
        runs.append(costs)
    return {name: statistics.median(r.get(name, 0.0) for r in runs)
            for name in THIRD_PARTY + OWN_MODULES}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="logicaltex benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("roundtrip", "archive-batch", "hostile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "logicaltex" / "__init__.py", ROOT / "tests" / "corpusgen.py")
               if not p.is_file()]
    if missing:
        print("error: the benchmark needs the logicaltex sources; missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2

    # Set-up is probed before the workload runs, not after it: sustained
    # load just before slows the probes more than the calibration loop shows.
    setup_s = None if args.trace else setup_seconds()
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 2
    if child.returncode != 0:
        print(f"error: workload exited with {child.returncode}", file=sys.stderr)
        return 2
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if args.trace:
        for name, ms in import_ms().items():
            metrics[f"setup.import_ms.{name}"] = {"value": ms, "unit": "ms"}
    else:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}

    for line in lines[:-1]:
        print(line)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"correct={result['correct']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
