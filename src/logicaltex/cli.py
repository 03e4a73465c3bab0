"""Operator entry point: detect, convert, degrade, validate and batch runs.

Exit codes form a fixed lattice: 0 all pass, 1 any warning, 2 any
failure, 3 usage or I/O error.  The default output mode writes a
suffixed copy next to the input; nothing is overwritten unless asked
for twice (--output inplace --force).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .converter import ConversionPolicy, Scope, convert
from .detector import classify_detections, detect_all
from .lexer import decode_source, parse
from .model import PROFILE_CODES, Metadata, MetadataError, extract_logical

# The degrader, the validator and the arXiv client (and json, for machine
# reports and config files) are imported by the commands that use them:
# loading them takes longer than converting a file, and detect and convert
# run none of them.
if TYPE_CHECKING:
    from .arxiv import ArxivClient
    from .validator import MetadataScores, Thresholds

SCHEMA_VERSION = 1
DEFAULT_SUFFIX = ".logical.tex"

EXIT_PASS = 0
EXIT_WARN = 1
EXIT_FAIL = 2
EXIT_USAGE = 3


_POLICY = ConversionPolicy._field_defaults


class RunConfig:
    """Every option of a run: the defaults, then a config file, then flags."""

    # Each option and its default.
    DEFAULTS = {
        "scope": _POLICY["scope"].value,
        "threshold": _POLICY["apply_threshold"],
        "affiliation_cmd": _POLICY["affiliation_command"],
        "aggressive": _POLICY["aggressive"],
        "output": "copy",  # copy | stdout | inplace
        "force": False,
        "suffix": DEFAULT_SUFFIX,
        "report": "human",  # human | machine
        "profiles": ("centerline-style",),
        "seeds": (0,),
        "out_dir": "degraded",
        "jobs": 1,
        "cache_dir": "",
        "offline": False,
        "arxiv_id": "",
        # None reads the default of validator.Thresholds.
        "title_threshold": None,
        "author_threshold": None,
        "abstract_threshold": None,
    }
    __slots__ = tuple(DEFAULTS)

    def __init__(self, **options):
        for name, value in {**self.DEFAULTS, **options}.items():
            setattr(self, name, value)

    def policy(self) -> ConversionPolicy:
        return ConversionPolicy(
            scope=Scope.FULL if self.scope == "full" else Scope.METADATA_ONLY,
            affiliation_command=self.affiliation_cmd,
            apply_threshold=self.threshold,
            aggressive=self.aggressive,
        )

    def thresholds(self) -> Thresholds:
        from .validator import Thresholds

        given = {"title": self.title_threshold, "author_f1": self.author_threshold,
                 "abstract": self.abstract_threshold}
        return Thresholds(**{k: v for k, v in given.items() if v is not None})

    def resolved_cache_dir(self) -> Path:
        if self.cache_dir:
            return Path(self.cache_dir)
        env = os.environ.get("LOGICALTEX_CACHE_DIR")
        if env:
            return Path(env)
        return Path.home() / ".cache" / "logicaltex" / "arxiv"


def _load_config_file(path: str) -> dict:
    import json

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _merge_config(args: argparse.Namespace) -> RunConfig:
    options = {}
    if getattr(args, "config", None):
        options = _load_config_file(args.config)
        unknown = options.keys() - RunConfig.DEFAULTS.keys()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name in RunConfig.DEFAULTS:
        value = getattr(args, name, None)
        if value is not None:
            options[name] = value
    return RunConfig(**options)


class _Reporter:
    def __init__(self, mode: str, out=None):
        self.mode = mode
        self.out = out or sys.stdout
        if mode == "machine":
            import json

            self._dumps = json.dumps

    def emit(self, record: dict, human: str):
        text = (self._dumps({"schema": SCHEMA_VERSION, **record}, ensure_ascii=False)
                if self.mode == "machine" else human)
        # Undecodable input bytes live on as lone surrogates: escape them, so
        # that a strict UTF-8 stream prints the report (as valid JSON too).
        print(text.encode("utf-8", "backslashreplace").decode("utf-8"), file=self.out)


def _report_stream(command: str, cfg: RunConfig):
    """With convert --output stdout, stdout carries only the converted bytes."""
    return sys.stderr if command == "convert" and cfg.output == "stdout" else sys.stdout


def _worst(verdicts) -> int:
    from .validator import Verdict

    order = {Verdict.PASS: EXIT_PASS, Verdict.WARN: EXIT_WARN, Verdict.FAIL: EXIT_FAIL}
    code = EXIT_PASS
    for v in verdicts:
        code = max(code, order[v])
    return code


def _detection_rows(dets, stream) -> list[dict]:
    rows = []
    for det in sorted(dets.all(), key=lambda d: (d.span.start, d.kind.value)):
        rows.append({
            "kind": det.kind.value,
            "span": [det.span.start, det.span.end],
            "line": stream.line_of(det.span.start),
            "confidence": det.confidence,
            "cues": sorted(c.kind.value for c in det.cues),
        })
    return rows


def cmd_detect(paths: list[Path], cfg: RunConfig) -> int:
    reporter = _Reporter(cfg.report)
    for path in paths:
        tree = parse(path.read_bytes())
        dets = detect_all(tree)
        cls = classify_detections(dets)
        rows = _detection_rows(dets, tree.stream)
        human_lines = [f"{path}: {cls.label.value} (visual score {cls.score:.2f})"]
        for r in rows:
            human_lines.append(
                f"  line {r['line']:>4}  {r['kind']:<17} conf {r['confidence']:.2f}  "
                f"cues: {', '.join(r['cues'])}")
        reporter.emit(
            {"command": "detect", "path": str(path), "class": cls.label.value,
             "score": cls.score, "detections": rows},
            "\n".join(human_lines))
    return EXIT_PASS


def _output_path(path: Path, cfg: RunConfig) -> Path:
    return path.with_name(path.stem + cfg.suffix)


def cmd_convert(paths: list[Path], cfg: RunConfig) -> int:
    reporter = _Reporter(cfg.report, _report_stream("convert", cfg))
    worst = EXIT_PASS
    for path in paths:
        source = path.read_bytes()
        output, report = convert(source, cfg.policy())
        target = {"copy": _output_path(path, cfg), "inplace": path}.get(cfg.output)
        if target is None:
            sys.stdout.buffer.write(output)
        else:
            target.write_bytes(output)
        record = {
            "command": "convert",
            "path": str(path),
            "output": str(target) if cfg.output == "copy" else cfg.output,
            "class_before": report.class_before.label.value,
            "class_after": report.class_after.label.value,
            "applied": [
                {"kind": d.kind.value, "span": [e.span.start, e.span.end],
                 "confidence": d.confidence, "replacement": e.replacement}
                for d, e in report.applied],
            "skipped": [
                {"kind": d.kind.value, "span": [d.span.start, d.span.end],
                 "confidence": d.confidence, "reason": r}
                for d, r in report.skipped],
            "warnings": report.warnings,
        }
        human = [f"{path}: {report.class_before.label.value} -> "
                 f"{report.class_after.label.value}, "
                 f"{len(report.applied)} applied, {len(report.skipped)} skipped"]
        if cfg.report == "human" and report.applied:
            import difflib

            diff = difflib.unified_diff(
                decode_source(source).splitlines(keepends=True),
                decode_source(output).splitlines(keepends=True),
                fromfile=str(path), tofile=str(target or "<stdout>"))
            human.append("".join(diff))
        for d, r in report.skipped:
            human.append(f"  skipped {d.kind.value} (conf {d.confidence:.2f}): {r}")
        for w in report.warnings:
            human.append(f"  warning: {w}")
        reporter.emit(record, "\n".join(human))
        if report.warnings:
            worst = max(worst, EXIT_WARN)
    return worst


def cmd_degrade(paths: list[Path], cfg: RunConfig) -> int:
    from .degrader import emit_pairs

    reporter = _Reporter(cfg.report)
    worst = EXIT_PASS
    corpus = paths[0] if len(paths) == 1 and paths[0].is_dir() else paths
    # Checked before any pair is written, so a bad argument writes nothing.
    if corpus is paths and (bad := [p for p in paths if not p.is_file()]):
        print(f"error: {bad[0]} is not a file", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(cfg.out_dir)
    rows = emit_pairs(corpus, out_dir, cfg.profiles, cfg.seeds)
    for row in rows:
        if "skipped" in row:
            worst = max(worst, EXIT_WARN)
            reporter.emit({"command": "degrade", **row},
                          f"{row['source']}: skipped ({row['skipped']})")
        else:
            reporter.emit({"command": "degrade", **row},
                          f"{row['source']} -> {row['visual']} (seed {row['seed']})")
    reporter.emit(
        {"command": "degrade-summary", "pairs": sum(1 for r in rows if "visual" in r),
         "skipped": sum(1 for r in rows if "skipped" in r),
         "manifest": str(out_dir / "manifest.jsonl")},
        f"manifest: {out_dir / 'manifest.jsonl'}")
    return worst


def _infer_arxiv_id(path: Path) -> str | None:
    from .arxiv import is_valid_id

    stem = path.name
    for suffix in (".visual.tex", ".logical.tex", ".tex"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    candidate = stem.replace("_", "/")
    if is_valid_id(stem):
        return stem
    if is_valid_id(candidate):
        return candidate
    return None


def _sidecar(path: Path) -> Path | None:
    """The ``.truth.json`` sidecar of a degraded file, if it has one."""
    name = path.name
    for suffix in (".visual.tex", ".tex"):
        if name.endswith(suffix):
            sidecar = path.with_name(name[: -len(suffix)] + ".truth.json")
            if sidecar.exists():
                return sidecar
    return None


def _validate_one(path: Path, cfg: RunConfig, client: ArxivClient | None):
    from .validator import compare_metadata, validate

    source = path.read_bytes()
    output, report = convert(source, cfg.policy())
    scores: MetadataScores | None = None
    notes: list[str] = []
    reference = None
    if (sidecar := _sidecar(path)) is not None:
        try:
            reference = Metadata.from_json(sidecar.read_bytes())
        except (OSError, MetadataError) as exc:
            notes.append(f"no reference record: unreadable sidecar {sidecar}: {exc}")
    # batch has no client, so it never loads the arXiv client's module.
    elif client is not None and (arxiv_id := cfg.arxiv_id or _infer_arxiv_id(path)):
        from .arxiv import ArxivError

        try:
            reference = client.fetch(arxiv_id)
        except ArxivError as exc:
            notes.append(f"no reference record: {exc}")
    if reference is not None:
        scores = compare_metadata(extract_logical(parse(output)).metadata(), reference)
    result = validate(source, output, report.plan, scores, cfg.thresholds())
    result.notes.extend(notes)
    return output, report, result


def cmd_validate(paths: list[Path], cfg: RunConfig) -> int:
    from .arxiv import ArxivClient

    reporter = _Reporter(cfg.report)
    client = ArxivClient(cfg.resolved_cache_dir(), offline=cfg.offline)
    verdicts = []
    for path in paths:
        output, report, result = _validate_one(path, cfg, client)
        verdicts.append(result.verdict)
        record = {"command": "validate", "path": str(path), **result.to_dict()}
        human = [f"{path}: {result.verdict.value.upper()} "
                 f"(body preserved: {result.body_preserved}, "
                 f"structural delta: {len(result.structural_delta)})"]
        if result.metadata is not None:
            human.append(f"  scores: {result.metadata.to_dict()}")
        for n in result.notes:
            human.append(f"  note: {n}")
        reporter.emit(record, "\n".join(human))
    return _worst(verdicts)


def _batch_worker(path: Path, cfg: RunConfig) -> dict:
    try:
        output, report, result = _validate_one(path, cfg, None)
        return {
            "path": str(path),
            "class": report.class_before.label.value,
            "verdict": result.verdict.value,
            "body_preserved": result.body_preserved,
            "structural_delta": len(result.structural_delta),
            "metadata": result.metadata.to_dict() if result.metadata else None,
            "warnings": report.warnings,
            "notes": result.notes,
        }
    except Exception as exc:  # per-file failures never abort the batch
        return {"path": str(path), "error": f"{type(exc).__name__}: {exc}",
                "verdict": "fail", "class": "error"}


def _batch_paths(corpus: Path) -> list[Path]:
    tex = sorted(corpus.glob("*.tex"))
    visual = [p for p in tex if p.name.endswith(".visual.tex")]
    return visual or [p for p in tex if not p.name.endswith(DEFAULT_SUFFIX)]


def cmd_batch(corpus: Path, cfg: RunConfig) -> int:
    reporter = _Reporter(cfg.report)
    paths = _batch_paths(corpus)
    jobs = max(1, cfg.jobs)
    if jobs == 1:
        results = [_batch_worker(p, cfg) for p in paths]
    else:
        import concurrent.futures

        # Imported before the pool starts, so that forked workers inherit
        # the module each file needs instead of each compiling it.
        from . import validator  # noqa: F401

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_batch_worker, paths, itertools.repeat(cfg)))
    results.sort(key=lambda r: r["path"])
    tallies = {"pass": 0, "warn": 0, "fail": 0}
    classes = {"logical": 0, "mixed": 0, "visual": 0, "error": 0}
    for r in results:
        tallies[r["verdict"]] += 1
        classes[r.get("class", "error")] += 1
        reporter.emit({"command": "batch-file", **r},
                      f"{r['path']}: {r.get('class', '?')} -> {r['verdict']}")
    total = len(results) or 1
    prevalence = (classes["mixed"] + classes["visual"]) / total
    summary = {
        "command": "batch-summary",
        "files": len(results),
        "classes": classes,
        "conversion": tallies,
        "visual_prevalence": prevalence,
    }
    reporter.emit(summary,
                  f"{len(results)} files: {classes} | conversions {tallies} | "
                  f"visual prevalence {prevalence:.1%}")
    if tallies["fail"]:
        return EXIT_FAIL
    if tallies["warn"]:
        return EXIT_WARN
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    # usage errors belong to exit code 3, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def _get_option_tuples(self, option_string):
        # The root parser sorts every word, those after the command too,
        # before the command's parser reads them.  So a prefix that several
        # options match is read as one of the parser's own options, and the
        # hidden options of the commands give way: after the command, the
        # command's parser resolves the prefix among its own options.  A
        # prefix of command options only is one hidden option naming all
        # their commands, which the root parser calls only before the
        # command.
        tuples = super()._get_option_tuples(option_string)
        if len(tuples) > 1:
            own = [t for t in tuples if not isinstance(t[0], _CommandOption)]
            if own:
                return own
            commands = dict.fromkeys(name for t in tuples for name in t[0].commands)
            hidden = _CommandOption([option_string.split("=", 1)[0]], argparse.SUPPRESS,
                                    list(commands))
            return [(hidden, *tuples[0][1:])]
        return tuples


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and shared after.

    Parsing leaves the parser as it was: each ``parse_args`` returns a new
    namespace, and no default is a mutable value an action changes."""
    parser = _Parser(
        prog="logicaltex",
        description="Rewrite visually formatted LaTeX into logical LaTeX, "
                    "verifiably.")
    parser.add_argument("--config", help="JSON config file mirroring the flags")
    parser.add_argument("--report", choices=["human", "machine"], default=None,
                        help="report format (default: human)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="list detections and classify")
    p_detect.add_argument("paths", nargs="+", type=Path)

    p_convert = sub.add_parser("convert", help="rewrite to logical commands")
    p_convert.add_argument("paths", nargs="+", type=Path)
    p_convert.add_argument("--scope", choices=["metadata", "full"], default=None)
    p_convert.add_argument("--threshold", type=float, default=None)
    p_convert.add_argument("--affiliation-cmd", dest="affiliation_cmd",
                           choices=["thanks", "affiliation"], default=None)
    p_convert.add_argument("--aggressive", action="store_true", default=None)
    p_convert.add_argument("--output", choices=["copy", "stdout", "inplace"],
                           default=None)
    p_convert.add_argument("--force", action="store_true", default=None,
                           help="required for --output inplace")
    p_convert.add_argument("--suffix", default=None,
                           help=f"suffix for copies (default {DEFAULT_SUFFIX})")

    p_degrade = sub.add_parser("degrade", help="make visual pairs with ground truth")
    p_degrade.add_argument("paths", nargs="+", type=Path,
                           help="corpus directory or .tex files")
    p_degrade.add_argument("--out", dest="out_dir", default=None)
    p_degrade.add_argument("--profiles", type=lambda s: s.split(","), default=None,
                           help="comma list from: " + ", ".join(PROFILE_CODES))
    p_degrade.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")],
                           default=None)

    p_validate = sub.add_parser("validate", help="check conversions")
    p_validate.add_argument("paths", nargs="+", type=Path)
    p_validate.add_argument("--arxiv-id", dest="arxiv_id", default=None)
    p_validate.add_argument("--offline", action="store_true", default=None)
    p_validate.add_argument("--cache-dir", dest="cache_dir", default=None,
                            help="metadata cache directory "
                                 "(env: LOGICALTEX_CACHE_DIR)")
    p_validate.add_argument("--scope", choices=["metadata", "full"], default=None)
    p_validate.add_argument("--aggressive", action="store_true", default=None)

    p_batch = sub.add_parser("batch", help="aggregate a whole corpus")
    p_batch.add_argument("corpus", type=Path)
    p_batch.add_argument("--jobs", type=int, default=None)
    p_batch.add_argument("--scope", choices=["metadata", "full"], default=None)
    p_batch.add_argument("--aggressive", action="store_true", default=None)
    # An option that only commands take, given before the command, is a
    # hidden root option that names the commands taking it; argparse reads
    # it as any root option, abbreviated or with "=".
    commands: dict[str, list[str]] = {}
    for name, command in sub.choices.items():
        for option in command._option_string_actions:
            if option not in parser._option_string_actions:
                commands.setdefault(option, []).append(name)
    for option, names in commands.items():
        parser.add_argument(option, action=_CommandOption, dest=argparse.SUPPRESS,
                            commands=names)
    return parser


class _CommandOption(argparse.Action):
    """An option of ``commands`` given before the command: a usage error."""

    def __init__(self, option_strings, dest, commands):
        super().__init__(option_strings, dest, nargs="?", help=argparse.SUPPRESS)
        self.commands = commands

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{self.option_strings[0]} is an option of {', '.join(self.commands)}; "
                     f"give it after the command")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "detect":
            return cmd_detect(args.paths, cfg)
        if args.command == "convert":
            if cfg.output == "inplace" and not cfg.force:
                print("error: --output inplace requires --force", file=sys.stderr)
                return EXIT_USAGE
            return cmd_convert(args.paths, cfg)
        if args.command == "degrade":
            return cmd_degrade(args.paths, cfg)
        if args.command == "validate":
            return cmd_validate(args.paths, cfg)
        # The parser requires one of the five commands: this is batch.
        if not args.corpus.is_dir():
            print(f"error: {args.corpus} is not a directory", file=sys.stderr)
            return EXIT_USAGE
        return cmd_batch(args.corpus, cfg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash is a failure, never exit 1 ("warning")
        error = f"{type(exc).__name__}: {exc}"
        print(f"error: {error}", file=sys.stderr)
        if cfg.report == "machine":
            _Reporter(cfg.report, _report_stream(args.command, cfg)).emit(
                {"command": "error", "error": error}, error)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
