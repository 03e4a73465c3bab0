"""Run one benchmark workload in this process and print its result.

    python3 perfbench/workload.py --workload roundtrip --seed 1 --seconds 25 --trace 0

``run.py`` starts this file as a child process, so the peak RSS it
reports is the workload's own.  The last line of standard output is a
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload is a closed loop with one client: the next input is sent
only after the previous one has returned.  Inputs come from the seed;
the program under test only ever sees the generated inputs.  Outputs
are checked outside the timed region, and a failed check is counted,
never raised.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

from logicaltex import cli, converter, degrader, lexer, model, validator  # noqa: E402
from logicaltex.detector import DocumentClass  # noqa: E402

from corpusgen import make_document  # noqa: E402
from hostile import GENERATORS, hostile_inputs  # noqa: E402
from probe import WARMUP_DOC  # noqa: E402
from speed import SpeedGauge  # noqa: E402
from tracer import TRACED, Tracer, self_times  # noqa: E402

AGGRESSIVE = converter.ConversionPolicy(scope=converter.Scope.FULL, aggressive=True)

# The five degradation bundles of the round-trip acceptance suite.
PROFILE_SETS = (
    ("centerline-style",),
    ("center-env",),
    ("centerline-style", "numbered-markers", "bold-solitary-sections"),
    ("center-env", "symbol-markers", "inline-emphasis"),
    ("centerline-style", "symbol-markers", "unlabeled-abstract",
     "bold-solitary-sections", "inline-emphasis"),
)

# Lowest passing share of each output check: the acceptance suite's
# thresholds.  A check with nothing to check on a workload reads 1.0.
REQUIRED_SHARE = {
    "body_preserved": 1.0,
    "structure_ok": 1.0,
    "class_correct": 1.0,
    "verdict_not_fail": 1.0,
    "title_exact": 0.95,
    "author_f1_ok": 0.90,
    "abstract_ok": 0.90,
}
SHARE_METRICS = ("body_preserved", "structure_ok", "class_correct",
                 "title_exact", "author_f1_ok", "abstract_ok")

HARD_LIMIT_S = 150  # a run ends within 180 s even on a slow machine
ARCHIVE_FILES = 200


class Tally:
    """Passes and totals of each named output check."""

    def __init__(self):
        self.ok: Counter = Counter()
        self.total: Counter = Counter()

    def check(self, name: str, passed: bool) -> None:
        self.total[name] += 1
        self.ok[name] += bool(passed)

    def share(self, name: str) -> float:
        return self.ok[name] / self.total[name] if self.total[name] else 1.0

    def correct(self) -> bool:
        return all(self.share(n) >= floor for n, floor in REQUIRED_SHARE.items())


def _text(source: str | bytes) -> str:
    return source.decode("utf-8", "surrogateescape") if isinstance(source, bytes) else source


def body_preserved(source: str | bytes, output: str | bytes, plan) -> bool:
    """Independent of the validator: splicing the plan's replacements
    into the source must give the output exactly."""
    text, parts, pos = _text(source), [], 0
    for edit in plan.edits:
        if edit.span.start < pos:
            return False
        parts += [text[pos:edit.span.start], edit.replacement]
        pos = edit.span.end
    parts.append(text[pos:])
    return "".join(parts) == _text(output)


def check_metadata(tally: Tally, scores) -> None:
    tally.check("title_exact", scores.title_similarity == 1.0)
    tally.check("author_f1_ok", (scores.author_set_f1 or 0.0) >= 0.9)
    tally.check("abstract_ok", (scores.abstract_similarity or 0.0) >= 0.95)


# ---------------------------------------------------------------------------
# Workloads.  Each gives: item(i) (input i, untimed), run(item) (timed;
# raises if the program raised), check(item, output, tally) (untimed;
# False when the output records a failure the program caught itself),
# size(item) in bytes, chunk (inputs per throughput window) and
# trace_count (inputs in the traced run's fixed set).
# ---------------------------------------------------------------------------


@dataclass
class Pair:
    text: str
    profiles: tuple[str, ...]
    seed: int


class Roundtrip:
    """degrade -> convert -> validate -> metadata score, per corpus document."""

    chunk = 20
    trace_count = 20

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"roundtrip-{seed}")
        self.start = rng.randrange(1_000_000)
        self.degrade_seed = rng.randrange(2**31)

    def item(self, i: int) -> Pair:
        return Pair(make_document(self.start + i), PROFILE_SETS[i % len(PROFILE_SETS)],
                    self.degrade_seed + i)

    @staticmethod
    def size(pair: Pair) -> int:
        return len(pair.text.encode())

    @staticmethod
    def run(pair: Pair):
        visual, truth = degrader.degrade(pair.text, pair.profiles, pair.seed)
        out, report = converter.convert(visual, AGGRESSIVE)
        logical = model.extract_logical(lexer.parse(out))
        extracted = validator.ExtractedMetadata(
            title=logical.title_plain,
            authors=[model.strip_styling(a.name_raw) for a in logical.authors],
            abstract=None if logical.abstract_raw is None
            else model.strip_styling(logical.abstract_raw))
        reference = validator.ExtractedMetadata(
            truth.title, [name for name, _ in truth.authors], truth.abstract)
        scores = validator.compare_metadata(extracted, reference)
        result = validator.validate(visual, out, report.plan, scores)
        return visual, out, report, result

    @staticmethod
    def check(pair: Pair, output, tally: Tally) -> bool:
        visual, out, report, result = output
        tally.check("class_correct", report.class_before.label is not DocumentClass.LOGICAL)
        tally.check("body_preserved", body_preserved(visual, out, report.plan))
        tally.check("structure_ok", not result.structural_delta)
        check_metadata(tally, result.metadata)
        return True


@dataclass
class ArchiveFile:
    directory: Path
    logical: bool
    size: int


class ArchiveBatch:
    """``logicaltex batch`` in-process over a mixed archive: half logical
    sources, half degraded documents with ``.truth.json`` sidecars.
    Each file sits in its own directory and gets its own batch call, so
    per-file latency is observable from outside the package."""

    chunk = 20
    trace_count = 20

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"archive-{seed}")
        start = rng.randrange(1_000_000)
        self.files: list[ArchiveFile] = []
        for k in range(ARCHIVE_FILES):
            directory = workdir / f"f{k:04d}"
            directory.mkdir()
            name = f"doc{start + k:07d}"
            text = make_document(start + k)
            logical = k % 2 == 0
            if not logical:
                text, truth = degrader.degrade(
                    text, PROFILE_SETS[(k // 2) % len(PROFILE_SETS)], rng.randrange(2**31))
                (directory / f"{name}.truth.json").write_text(truth.to_json(), encoding="utf-8")
            data = text.encode()
            (directory / f"{name}.tex").write_bytes(data)
            self.files.append(ArchiveFile(directory, logical, len(data)))

    def item(self, i: int) -> ArchiveFile:
        return self.files[i % len(self.files)]

    @staticmethod
    def size(f: ArchiveFile) -> int:
        return f.size

    @staticmethod
    def run(f: ArchiveFile):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["--report", "machine", "batch", str(f.directory),
                             "--scope", "full", "--aggressive", "--jobs", "1"])
        return code, buf.getvalue()

    @staticmethod
    def check(f: ArchiveFile, output, tally: Tally) -> bool:
        code, text = output
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        rows = [r for r in records if r.get("command") == "batch-file"]
        summary = [r for r in records if r.get("command") == "batch-summary"]
        if len(rows) != 1 or len(summary) != 1:
            tally.check("verdict_not_fail", False)
            return True
        row = rows[0]
        if "error" in row:
            print(f"archive-batch: {f.directory.name}: {row['error']}", file=sys.stderr)
            return False
        tally.check("verdict_not_fail",
                    code != cli.EXIT_FAIL and summary[0]["conversion"]["fail"] == 0)
        tally.check("class_correct", (row["class"] == "logical") == f.logical)
        tally.check("body_preserved", row["body_preserved"])
        tally.check("structure_ok", row["structural_delta"] == 0)
        if not f.logical:
            scores = row["metadata"] or {}
            check_metadata(tally, validator.MetadataScores(
                scores.get("title_similarity"), scores.get("author_set_f1"),
                scores.get("abstract_similarity")))
        return True


@dataclass
class HostileInput:
    index: int
    generator: str
    n: int
    source: str | bytes


class Hostile:
    """convert on seeded hostile generators, each at size n and 2n."""

    def __init__(self, seed: int, workdir: Path):
        self.inputs = [HostileInput(i, g, n, src)
                       for i, (g, n, src) in enumerate(hostile_inputs(seed))]
        self.chunk = self.trace_count = len(self.inputs)
        self._checked: dict[int, tuple[object, bool, bool]] = {}

    def item(self, i: int) -> HostileInput:
        return self.inputs[i % len(self.inputs)]

    @staticmethod
    def size(h: HostileInput) -> int:
        return len(h.source if isinstance(h.source, bytes) else h.source.encode())

    @staticmethod
    def run(h: HostileInput):
        return converter.convert(h.source, AGGRESSIVE)

    def check(self, h: HostileInput, output, tally: Tally) -> bool:
        out, report = output
        seen = self._checked.get(h.index)
        if seen is None or seen[0] != out:
            seen = (out, body_preserved(h.source, out, report.plan),
                    not validator.validate_structure(h.source, out))
            self._checked[h.index] = seen
        tally.check("body_preserved", seen[1])
        tally.check("structure_ok", seen[2])
        return True


WORKLOADS = {"roundtrip": Roundtrip, "archive-batch": ArchiveBatch, "hostile": Hostile}


# ---------------------------------------------------------------------------
# Measurement.  Every timing is taken at the reference speed of speed.py.
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    seconds: float  # at the reference speed
    raw_seconds: float
    size: int
    completed: bool


class Runner:
    def __init__(self, workload, tally: Tally, gauge: SpeedGauge):
        self.workload = workload
        self.tally = tally
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0

    def one(self, item, check: bool = True) -> Sample:
        """Time one input; check its output unless told not to."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = self.workload.run(item)
        except Exception as exc:  # a raising input is counted, never fatal
            elapsed = time.perf_counter() - start
            self.failed += 1
            if self.failed <= 3:
                print(f"input raised {type(exc).__name__}: "
                      f"{traceback.format_exception_only(exc)[-1].strip()[:200]}",
                      file=sys.stderr)
            scale = self.gauge.scale_after_interval()
            return Sample(elapsed * scale, elapsed, self.workload.size(item), False)
        elapsed = time.perf_counter() - start
        scale = self.gauge.scale_after_interval()
        completed = self.workload.check(item, output, self.tally) if check else True
        if not completed:
            self.failed += 1
        return Sample(elapsed * scale, elapsed, self.workload.size(item), completed)


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(workload, seconds: float) -> tuple[Runner, list[Sample]]:
    """Closed loop over fresh inputs until ``seconds`` have passed and
    the current throughput window is complete."""
    runner = Runner(workload, Tally(), SpeedGauge())
    samples: list[Sample] = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and i % workload.chunk == 0):
            break
        samples.append(runner.one(workload.item(i)))
        i += 1
    return runner, samples


def end_to_end(runner: Runner, samples: list[Sample]) -> dict:
    chunk = runner.workload.chunk
    windows = [samples[k:k + chunk] for k in range(0, len(samples) - chunk + 1, chunk)]
    if not windows:
        windows = [samples]
    docs_per_s = statistics.median(
        sum(s.completed for s in w) / sum(s.seconds for s in w) for w in windows)
    kb_per_s = statistics.median(
        sum(s.size for s in w if s.completed) / 1024 / sum(s.seconds for s in w)
        for w in windows)
    latency_ms = [s.seconds * 1000 for s in samples if s.completed]
    raw_ms = [s.raw_seconds * 1000 for s in samples if s.completed]
    tally = runner.tally
    metrics = {
        "docs_per_s": (docs_per_s, "1/s"),
        "kb_per_s": (kb_per_s, "KiB/s"),
        "doc_ms_p50": (percentile(latency_ms, 50), "ms"),
        "doc_ms_p95": (percentile(latency_ms, 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "completed_share": ((runner.attempted - runner.failed) / runner.attempted, "share"),
    }
    for name in SHARE_METRICS:
        metrics[f"{name}_share"] = (tally.share(name), "share")
    print(f"{len(samples)} inputs, {runner.failed} failed; latency over "
          f"{len(latency_ms)} completed inputs"
          + ("" if len(latency_ms) >= 200 else
             " (fewer than 200: the p95 has fewer than 10 samples beyond it)")
          + f"; throughput median of {len(windows)} windows of {chunk}; wall-clock "
          f"p50 {percentile(raw_ms, 50):.1f} ms, p95 {percentile(raw_ms, 95):.1f} ms",
          file=sys.stderr)
    return metrics


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced(workload, seconds: float, span_path: Path) -> tuple[Runner, dict]:
    """Alternate untraced and traced passes over a fixed input set until
    ``seconds`` have passed.  Counts per document are exact because every
    traced pass covers the same inputs; outputs are checked in the
    untraced passes only, so the checks leave no spans."""
    items = [workload.item(i) for i in range(workload.trace_count)]
    gauge = SpeedGauge()
    runner = Runner(workload, Tally(), gauge)  # counts and checks the first pass
    repeat = Runner(workload, Tally(), gauge)
    tracer = Tracer()
    # per traced document run, in span doc-id order: (input index, scale)
    runs: list[tuple[int, float]] = []
    plain_s: list[float] = []
    traced_s: list[float] = []
    start = time.perf_counter()
    while not traced_s or (time.perf_counter() - start < seconds
                           and time.perf_counter() - start < HARD_LIMIT_S):
        plain_s.append(sum((repeat if plain_s else runner).one(item, check=not plain_s).seconds
                           for item in items))
        tracer.install()
        try:
            total = 0.0
            for index, item in enumerate(items):
                tracer.doc = len(runs)
                sample = repeat.one(item, check=False)
                runs.append((index, sample.seconds / sample.raw_seconds))
                total += sample.seconds
            traced_s.append(total)
        finally:
            tracer.uninstall()
    tracer.write(span_path)
    docs = len(runs)
    print(f"traced {len(traced_s)} passes of {len(items)} inputs; "
          f"{len(tracer.spans)} spans written to {span_path.relative_to(ROOT)}", file=sys.stderr)

    spans = tracer.spans
    own = self_times(spans)
    calls: Counter = Counter()
    self_ms: Counter = Counter()
    under_cli: Counter = Counter()
    for (name, _, _, parent, run), seconds_own in zip(spans, own):
        calls[name] += 1
        self_ms[name] += seconds_own * runs[run][1] * 1000
        if parent >= 0 and spans[parent][0] == "cli.main":
            under_cli[name] += 1

    metrics: dict[str, tuple[float, str]] = {}
    for module, functions in TRACED.items():
        if module == "cli":
            continue
        for fn in functions:
            name = f"{module}.{fn}"
            metrics[f"{name}.calls_per_doc"] = (calls[name] / docs, "count")
            metrics[f"{name}.self_ms_per_doc"] = (self_ms[name] / docs, "ms")
    counts = tracer.counts
    metrics["lexer.tokens_per_doc"] = (counts["lexer.tokens"] / docs, "count")
    metrics["detector.detections_per_doc"] = (counts["detector.detections"] / docs, "count")
    metrics["detector.applied_ratio"] = (
        counts["converter.applied"] / counts["detector.detections"]
        if counts["detector.detections"] else 0.0, "ratio")
    metrics["converter.edits_per_doc"] = (counts["converter.edits"] / docs, "count")
    metrics["validator.levenshtein.cells_per_doc"] = (
        counts["validator.levenshtein.cells"] / docs, "count")
    metrics["cli.self_ms_per_file"] = (self_ms["cli.main"] / docs, "ms")
    for fn, name in (("parse", "lexer.parse"), ("classify", "detector.classify"),
                     ("convert", "converter.convert")):
        metrics[f"cli.{fn}.calls_per_file"] = (under_cli[name] / docs, "count")

    # Convert time at 2n over convert time at n, per hostile generator.
    convert_s: dict[int, list[float]] = {}
    for name, t0, t1, _, run in spans:
        if name == "converter.convert":
            index, scale = runs[run]
            convert_s.setdefault(index, []).append((t1 - t0) * scale)
    for generator in GENERATORS:
        ratio = 0.0
        if isinstance(workload, Hostile):
            by_size = {h.n: statistics.median(convert_s[h.index])
                       for h in workload.inputs if h.generator == generator}
            small, large = sorted(by_size)
            ratio = by_size[large] / by_size[small]
        metrics[f"converter.convert.ratio_2n.{generator}"] = (ratio, "ratio")

    plain, with_spans = statistics.median(plain_s), statistics.median(traced_s)
    metrics["trace.overhead_ms_per_doc"] = ((with_spans - plain) * 1000 / len(items), "ms")
    metrics["trace.overhead_share"] = (with_spans / plain - 1, "ratio")
    print(f"tracing overhead: {(with_spans - plain) * 1000:+.0f} ms per pass of {len(items)} "
          f"inputs ({with_spans / plain - 1:+.1%}), medians of {len(traced_s)} passes",
          file=sys.stderr)
    return runner, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path(lexer.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported {lexer.__file__}, not the package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        converter.convert(WARMUP_DOC, AGGRESSIVE)
        workload.run(workload.item(0))
        if args.trace:
            span_path = out_dir / f"spans-{args.workload}.jsonl"
            runner, metrics = traced(workload, args.seconds, span_path)
        else:
            runner, samples = measure(workload, args.seconds)
            metrics = end_to_end(runner, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": runner.tally.correct() and runner.attempted > runner.failed,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
