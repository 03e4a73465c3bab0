"""Self-test of the benchmark at tiny run lengths.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted on every
workload, that traced counts repeat exactly across two runs, and that
a corrupted output (one byte flipped outside the edit plan) is counted
as a failed check.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_SUFFIXES = (".calls_per_doc", ".calls_per_file", "tokens_per_doc", "cells_per_doc",
                  "detections_per_doc", "edits_per_doc", "applied_ratio")


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def flipped_output_is_counted() -> list[str]:
    sys.path.insert(0, str(HERE))
    import workload as w

    problems = []
    for cls, at in ((w.Roundtrip, 1), (w.Hostile, 0)):  # at: index of the converted text
        bench_workload = cls(0, ROOT)
        item = bench_workload.item(0)
        output = list(bench_workload.run(item))
        report = output[at + 1]
        source = output[0] if cls is w.Roundtrip else item.source
        text = w._text(output[at])
        if report.plan.edits and report.plan.edits[-1].span.end >= len(w._text(source)):
            problems.append(f"{cls.__name__}: the last byte is not outside the plan")
            continue
        flipped = text[:-1] + chr(ord(text[-1]) ^ 1)
        output[at] = (flipped.encode("utf-8", "surrogateescape")
                      if isinstance(output[at], bytes) else flipped)
        tally = w.Tally()
        bench_workload.check(item, tuple(output), tally)
        if tally.share("body_preserved") != 0.0 or tally.correct():
            problems.append(f"{cls.__name__}: a flipped byte was not counted as a failure")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            got = bench(workload, trace)["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong_unit = sorted(n for n in set(want) & set(got) if got[n]["unit"] != want[n])
            if missing or extra or wrong_unit:
                problems.append(f"{workload} trace {trace}: missing {missing}, "
                                f"unlisted {extra}, wrong unit {wrong_unit}")
            if trace:
                again = bench(workload, trace)["metrics"]
                differ = [n for n in got if n.endswith(EXACT_SUFFIXES)
                          and got[n]["value"] != again[n]["value"]]
                if differ:
                    problems.append(f"{workload}: traced counts differ between runs: {differ}")
        print(f"{workload}: metrics checked", flush=True)
    problems += flipped_output_is_counted()
    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
