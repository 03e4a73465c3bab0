import argparse
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import logicaltex
from logicaltex.cli import build_parser, main
from logicaltex.converter import ConversionPolicy, convert
from logicaltex.degrader import degrade, emit_pairs
from logicaltex.lexer import decode_source

from conftest import (
    ARXIV_CACHE,
    FIXTURES,
    FULL_PROFILES,
    LOGICAL_FIXTURES,
    PROFILE_SETS,
    VISUAL_FIXTURES,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_records(out: str):
    return [json.loads(line) for line in out.strip().splitlines() if line.strip()]


@pytest.fixture()
def degraded_file(tmp_path):
    src = LOGICAL_FIXTURES[0].read_text()
    visual, truth = degrade(src, FULL_PROFILES, 0)
    path = tmp_path / "sample.visual.tex"
    path.write_text(visual, encoding="utf-8")
    (tmp_path / "sample.truth.json").write_text(truth.to_json(), encoding="utf-8")
    return path


def test_detect_logical_file_exit_zero(tmp_path, capsys):
    path = tmp_path / "doc.tex"
    shutil.copy(LOGICAL_FIXTURES[0], path)
    code, out, _ = run(capsys, "--report", "machine", "detect", str(path))
    assert code == 0
    rec = machine_records(out)[0]
    assert rec["schema"] == 1
    assert rec["class"] == "logical"
    assert rec["detections"] == []


def test_detect_visual_file_lists_detections(degraded_file, capsys):
    code, out, _ = run(capsys, "--report", "machine", "detect", str(degraded_file))
    assert code == 0
    rec = machine_records(out)[0]
    assert rec["class"] == "visual"
    kinds = {d["kind"] for d in rec["detections"]}
    assert "title" in kinds and "section-header" in kinds


def test_convert_writes_suffixed_copy(degraded_file, capsys):
    code, out, _ = run(capsys, "--report", "machine", "convert",
                       str(degraded_file), "--scope", "full", "--aggressive")
    assert code == 0
    rec = machine_records(out)[0]
    out_path = Path(rec["output"])
    assert out_path.exists()
    assert out_path.name.endswith(".logical.tex")
    converted = out_path.read_text()
    assert "\\title{" in converted and "\\maketitle" in converted
    assert rec["class_after"] == "logical"


def test_convert_metadata_scope_leaves_body(degraded_file, capsys):
    original = degraded_file.read_text()
    code, out, _ = run(capsys, "--report", "machine", "convert",
                       str(degraded_file), "--scope", "metadata")
    rec = machine_records(out)[0]
    converted = Path(rec["output"]).read_text()
    assert "\\title{" in converted
    # visual section headers in the body are untouched under metadata scope
    for line in original.splitlines():
        if "\\noindent{\\bf" in line or "\\textbf{\\large" in line:
            assert line in converted
    assert any("scope" in s["reason"] for s in rec["skipped"])


def test_convert_stdout_mode(degraded_file, capsys):
    code, out, _ = run(capsys, "convert", str(degraded_file),
                       "--scope", "full", "--aggressive", "--output", "stdout")
    assert code == 0
    assert "\\title{" in out


# A visual document holding a Latin-1 byte, which is not valid UTF-8.
LATIN1_DOC = (b"\\documentclass{article}\n\\begin{document}\n"
              b"\\centerline{\\bf G\xf6del Numbering Revisited}\n\n"
              b"\\centerline{Kurt G\xf6del}\n\n"
              b"{\\bf Abstract.} We revisit G\xf6del.\n\n"
              b"{\\bf 1. Introduction}\n\nText.\n\\end{document}\n")


def run_bytes(monkeypatch, *argv) -> tuple[int, bytes]:
    """Run main with a strict UTF-8 stdout, as under PYTHONIOENCODING=utf-8,
    and return its code and the bytes it wrote there."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        code = main(list(argv))
    stdout.flush()
    return code, stdout.buffer.getvalue()


@pytest.mark.parametrize("report", ["human", "machine"])
def test_convert_stdout_writes_exactly_the_copy_bytes(tmp_path, capsys, monkeypatch, report):
    fixture = tmp_path / "gaeta_style.tex"
    shutil.copy(next(p for p in VISUAL_FIXTURES if p.name == fixture.name), fixture)
    latin1 = tmp_path / "latin1.tex"
    latin1.write_bytes(LATIN1_DOC)
    for path in (fixture, latin1):
        argv = ["convert", str(path), "--scope", "full", "--aggressive"]
        code = main(argv)
        capsys.readouterr()
        expected = path.with_name(path.stem + ".logical.tex").read_bytes()
        assert run_bytes(monkeypatch, "--report", report, *argv, "--output", "stdout") == \
            (code, expected)
        assert path.name in capsys.readouterr().err


def test_report_escapes_undecodable_bytes(tmp_path, capsys):
    path = tmp_path / "latin1.tex"
    path.write_bytes(LATIN1_DOC)
    # capsys captures through a strict UTF-8 stream.
    code, out, _ = run(capsys, "convert", str(path), "--scope", "full", "--aggressive")
    assert code == 0
    assert "+\\title{G\\udcf6del Numbering Revisited}" in out
    code, out, _ = run(capsys, "--report", "machine", "convert", str(path),
                       "--scope", "full", "--aggressive")
    assert code == 0
    applied = machine_records(out)[0]["applied"]
    assert applied[0]["replacement"] == "\\title{G\udcf6del Numbering Revisited}"


def test_detect_line_is_the_line_of_the_span_start(capsys):
    for fixture in VISUAL_FIXTURES:
        code, out, _ = run(capsys, "--report", "machine", "detect", str(fixture))
        assert code == 0
        source = decode_source(fixture.read_bytes())
        for det in machine_records(out)[0]["detections"]:
            assert det["line"] == source.count("\n", 0, det["span"][0]) + 1


@pytest.mark.parametrize("fixture", VISUAL_FIXTURES, ids=lambda path: path.name)
def test_detect_lines_read_alike_under_every_line_end(fixture, tmp_path, capsys):
    # The lexer ends a line at a CRLF, a lone CR or an LF, wherever it
    # reads one, and so does the line a report prints: each copy yields
    # the same detections on the same lines.
    source = fixture.read_bytes().replace(b"\r\n", b"\n")
    reported = []
    for name, end in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
        path = tmp_path / f"{name}.tex"
        path.write_bytes(source.replace(b"\n", end))
        code, out, _ = run(capsys, "--report", "machine", "detect", str(path))
        assert code == 0
        reported.append([(det["kind"], det["line"])
                         for det in machine_records(out)[0]["detections"]])
    # A detection past line 1, which a count of LFs alone misplaces in
    # the CR copy.
    assert any(line > 1 for _, line in reported[0])
    assert reported[1] == reported[0] and reported[2] == reported[0]


def test_convert_inplace_requires_force(degraded_file, capsys):
    code, _, err = run(capsys, "convert", str(degraded_file), "--output", "inplace")
    assert code == 3
    assert "force" in err
    before = degraded_file.read_text()
    assert degraded_file.read_text() == before
    code2, _, _ = run(capsys, "convert", str(degraded_file),
                      "--output", "inplace", "--force", "--scope", "full",
                      "--aggressive")
    assert code2 == 0
    assert "\\title{" in degraded_file.read_text()


def test_convert_idempotent_outputs_byte_identical(degraded_file, tmp_path, capsys):
    run(capsys, "convert", str(degraded_file), "--scope", "full", "--aggressive")
    first = Path(str(degraded_file).replace(".tex", ".logical.tex")).read_bytes()
    run(capsys, "convert", str(degraded_file), "--scope", "full", "--aggressive")
    second = Path(str(degraded_file).replace(".tex", ".logical.tex")).read_bytes()
    assert first == second


def test_degrade_command_emits_pairs_and_manifest(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for p in LOGICAL_FIXTURES[:3]:
        shutil.copy(p, corpus / p.name)
    out_dir = tmp_path / "pairs"
    code, out, _ = run(capsys, "--report", "machine", "degrade", str(corpus),
                       "--out", str(out_dir), "--profiles",
                       "centerline-style,numbered-markers", "--seeds", "0,1")
    assert code == 0
    assert (out_dir / "manifest.jsonl").exists()
    rows = [r for r in machine_records(out) if r.get("command") == "degrade"]
    assert len(rows) == 6
    summary = [r for r in machine_records(out) if r.get("command") == "degrade-summary"][0]
    assert summary["pairs"] == 6


def test_degrade_skip_not_logical_warns(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(LOGICAL_FIXTURES[0], corpus / "good.tex")
    visual, _ = degrade(LOGICAL_FIXTURES[0].read_text(), FULL_PROFILES, 0)
    (corpus / "bad.tex").write_text(visual, encoding="utf-8")
    code, out, _ = run(capsys, "--report", "machine", "degrade", str(corpus),
                       "--out", str(tmp_path / "pairs"))
    assert code == 1  # warn
    records = machine_records(out)
    assert any("skipped" in r for r in records)


def test_degrade_files_keeps_their_paths_and_skips_a_repeated_name(tmp_path, capsys):
    # Two inputs with one file name would write the same pair files: the
    # second becomes a skip record.  Each row names the file it was given.
    given = []
    for folder, fixture in (("a", LOGICAL_FIXTURES[0]), ("b", LOGICAL_FIXTURES[1])):
        (tmp_path / folder).mkdir()
        given.append(tmp_path / folder / "x.tex")
        shutil.copy(fixture, given[-1])
    out_dir = tmp_path / "pairs"
    code, out, _ = run(capsys, "--report", "machine", "degrade", *map(str, given),
                       "--out", str(out_dir), "--seeds", "0,1")
    assert code == 1  # warn
    rows = [r for r in machine_records(out) if r.get("command") == "degrade"]
    assert [(r["source"], r["seed"], "skipped" in r) for r in rows] == [
        (str(given[0]), 0, False), (str(given[0]), 1, False),
        (str(given[1]), 0, True), (str(given[1]), 1, True)]
    manifest = machine_records((out_dir / "manifest.jsonl").read_text())
    assert [r["source"] for r in manifest] == [r["source"] for r in rows]
    assert (out_dir / "x__cl_s0.logical.tex").read_bytes() == given[0].read_bytes()
    # An argument that is no file is a usage error, before any pair is written.
    code, _, _ = run(capsys, "degrade", str(given[0]), str(tmp_path / "a"),
                     "--out", str(tmp_path / "unwritten"))
    assert code == 3 and not (tmp_path / "unwritten").exists()


def test_degrade_front_matter_inside_the_abstract(tmp_path, capsys):
    # Removing the \title from the abstract is spliced into the rendered
    # abstract, not planned as a second edit inside the abstract's own.
    good = tmp_path / "good.tex"
    shutil.copy(LOGICAL_FIXTURES[0], good)
    x = tmp_path / "x.tex"
    x.write_text("\\documentclass{article}\n\\author{A. B}\n\\begin{document}\n\\maketitle\n"
                 "\\begin{abstract}\\title{T} Words.\\end{abstract}\n\\section{One}\nText.\n"
                 "\\end{document}\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "degrade", str(good), str(x), "--profiles", "unlabeled-abstract",
                     "--out", str(out_dir))
    assert code == 0
    manifest = machine_records((out_dir / "manifest.jsonl").read_text())
    assert [r["source"] for r in manifest] == [str(good), str(x)]
    assert all(Path(r[f]).exists() for r in manifest for f in ("visual", "logical", "sidecar"))
    visual = Path(manifest[1]["visual"]).read_text(encoding="utf-8")
    assert "\\title" not in visual and "{\\small Words.}" in visual


def test_validate_degraded_with_sidecar_passes(degraded_file, capsys):
    code, out, _ = run(capsys, "--report", "machine", "validate",
                       str(degraded_file), "--scope", "full", "--aggressive",
                       "--offline")
    assert code == 0
    rec = machine_records(out)[0]
    assert rec["verdict"] == "pass"
    assert rec["body_preserved"] is True
    assert rec["structural"] == []
    scores = rec["metadata_scores"]
    assert scores["title_similarity"] == 1.0
    assert scores["author_set_f1"] == 1.0
    assert scores["abstract_similarity"] >= 0.95


def test_validate_warn_on_mismatched_sidecar(degraded_file, tmp_path, capsys):
    sidecar = degraded_file.with_name("sample.truth.json")
    truth = json.loads(sidecar.read_text())
    truth["title"] = "A Completely Different Title Entirely"
    sidecar.write_text(json.dumps(truth), encoding="utf-8")
    code, out, _ = run(capsys, "--report", "machine", "validate",
                       str(degraded_file), "--scope", "full", "--aggressive",
                       "--offline")
    assert code == 1
    assert machine_records(out)[0]["verdict"] == "warn"


def test_validate_against_arxiv_cache_offline(tmp_path, capsys):
    # quantum_walks fixture matches the 2401.01234 cache record
    quantum = next(p for p in LOGICAL_FIXTURES if p.name == "quantum_walks.tex")
    path = tmp_path / "2401.01234.tex"
    shutil.copy(quantum, path)
    code, out, _ = run(capsys, "--report", "machine", "validate", str(path), "--offline",
                       "--cache-dir", str(ARXIV_CACHE))
    rec = machine_records(out)[0]
    assert rec["verdict"] in ("pass", "warn")
    assert rec["metadata_scores"] is not None
    assert rec["metadata_scores"]["title_similarity"] == 1.0
    assert rec["metadata_scores"]["author_set_f1"] == 1.0
    assert code in (0, 1)


def test_validate_missing_reference_noted(tmp_path, capsys):
    path = tmp_path / "9999.99999.tex"
    shutil.copy(LOGICAL_FIXTURES[0], path)
    code, out, _ = run(capsys, "--report", "machine", "validate", str(path), "--offline",
                       "--cache-dir", str(tmp_path / "empty_cache"))
    rec = machine_records(out)[0]
    assert rec["metadata_scores"] is None
    assert any("no reference record" in n for n in rec["notes"])
    assert code == 0


# Sidecars that are not a metadata record: a misspelt key, text that is
# not JSON, a title that is not a string, and JSON that is not an object.
UNREADABLE_SIDECARS = ['{"title": "x", "authors": [{"nam": "A"}]}', "{not json",
                       '{"title": 5}', "[]"]


@pytest.mark.parametrize("text", UNREADABLE_SIDECARS)
def test_validate_notes_an_unreadable_sidecar(tmp_path, capsys, text):
    # As with an unreadable cache record, the file is checked without
    # metadata scores and a note says why; the run does not fail.
    path = tmp_path / "paper.tex"
    shutil.copy(LOGICAL_FIXTURES[0], path)
    (tmp_path / "paper.truth.json").write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "--report", "machine", "validate", str(path), "--offline",
                         "--cache-dir", str(tmp_path / "empty_cache"))
    rec = machine_records(out)[0]
    assert (code, err, rec["verdict"], rec["metadata_scores"]) == (0, "", "pass", None)
    [note] = rec["notes"]
    assert note.startswith(f"no reference record: unreadable sidecar {tmp_path / 'paper.truth.json'}")


def test_batch_on_pair_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for p in LOGICAL_FIXTURES[:5]:
        shutil.copy(p, corpus / p.name)
    pairs = tmp_path / "pairs"
    emit_pairs(corpus, pairs, PROFILE_SETS[4], seeds=(0,))
    code, out, _ = run(capsys, "--report", "machine", "batch", str(pairs),
                       "--scope", "full", "--aggressive")
    assert code == 0
    records = machine_records(out)
    summary = [r for r in records if r.get("command") == "batch-summary"][0]
    assert summary["files"] == 5
    assert summary["classes"]["visual"] == 5
    assert summary["conversion"]["pass"] == 5
    assert summary["visual_prevalence"] == 1.0


def test_batch_deterministic_reports(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for p in LOGICAL_FIXTURES[:3]:
        shutil.copy(p, corpus / p.name)
    pairs = tmp_path / "pairs"
    emit_pairs(corpus, pairs, ("centerline-style",), seeds=(0,))
    _, out1, _ = run(capsys, "--report", "machine", "batch", str(pairs),
                     "--scope", "full", "--aggressive")
    _, out2, _ = run(capsys, "--report", "machine", "batch", str(pairs),
                     "--scope", "full", "--aggressive")
    assert out1 == out2


def test_batch_parallel_matches_serial(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for p in LOGICAL_FIXTURES[:4]:
        shutil.copy(p, corpus / p.name)
    pairs = tmp_path / "pairs"
    emit_pairs(corpus, pairs, ("center-env",), seeds=(0,))
    _, serial, _ = run(capsys, "--report", "machine", "batch", str(pairs),
                       "--scope", "full", "--aggressive")
    _, parallel, _ = run(capsys, "--report", "machine", "batch", str(pairs),
                         "--jobs", "3", "--scope", "full", "--aggressive")
    assert serial == parallel


def test_batch_usage_error_on_missing_dir(tmp_path, capsys):
    code, _, err = run(capsys, "batch", str(tmp_path / "nope"))
    assert code == 3
    assert "not a directory" in err


def test_config_file_merging(degraded_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scope": "full", "aggressive": True,
                               "report": "machine"}), encoding="utf-8")
    code, out, _ = run(capsys, "--config", str(cfg), "convert", str(degraded_file))
    assert code == 0
    rec = machine_records(out)[0]
    assert rec["class_after"] == "logical"


def test_config_file_unknown_key_is_usage_error(degraded_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense": 1}), encoding="utf-8")
    code, _, err = run(capsys, "--config", str(cfg), "convert", str(degraded_file))
    assert code == 3
    assert "unknown config keys" in err


def test_config_file_holding_an_array_is_usage_error(degraded_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"scope": "full"}]), encoding="utf-8")
    code, _, err = run(capsys, "--config", str(cfg), "convert", str(degraded_file))
    assert code == 3
    assert "must hold a JSON object" in err


def test_human_report_includes_diff(degraded_file, capsys):
    code, out, _ = run(capsys, "convert", str(degraded_file),
                       "--scope", "full", "--aggressive")
    assert code == 0
    assert "---" in out and "+++" in out
    assert "+\\title{" in out


def test_usage_error_exit_code_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--no-such-flag"])
    assert exc.value.code == 3


def test_cache_dir_accepted_after_subcommand(tmp_path, capsys):
    quantum = next(p for p in LOGICAL_FIXTURES if p.name == "quantum_walks.tex")
    path = tmp_path / "2401.01234.tex"
    shutil.copy(quantum, path)
    code, out, _ = run(capsys, "--report", "machine", "validate", str(path),
                       "--offline", "--cache-dir", str(ARXIV_CACHE))
    rec = machine_records(out)[0]
    assert rec["metadata_scores"]["title_similarity"] == 1.0
    assert code in (0, 1)


def test_cache_dir_from_the_environment(tmp_path, capsys, monkeypatch):
    # Without --cache-dir, validate reads the cache LOGICALTEX_CACHE_DIR names.
    quantum = next(p for p in LOGICAL_FIXTURES if p.name == "quantum_walks.tex")
    path = tmp_path / "2401.01234.tex"
    shutil.copy(quantum, path)
    monkeypatch.setenv("LOGICALTEX_CACHE_DIR", str(ARXIV_CACHE))
    code, out, _ = run(capsys, "--report", "machine", "validate", str(path), "--offline")
    assert machine_records(out)[0]["metadata_scores"]["title_similarity"] == 1.0
    assert code in (0, 1)
    monkeypatch.setenv("LOGICALTEX_CACHE_DIR", str(tmp_path / "empty_cache"))
    code, out, _ = run(capsys, "--report", "machine", "validate", str(path), "--offline")
    assert machine_records(out)[0]["metadata_scores"] is None


def test_cache_dir_before_the_command_is_usage_error(capsys):
    # Only validate reads the cache, so only validate takes the flag.  An
    # option given before its command is named, with the commands that
    # take it.
    cases = [
        (["--cache-dir", str(ARXIV_CACHE), "validate", "x.tex", "--offline"],
         "--cache-dir is an option of validate; give it after the command"),
        (["--scope", "full", "convert", "x.tex"],
         "--scope is an option of convert, validate, batch; give it after the command"),
        (["--report", "machine", "--aggressive", "batch", "corpus"],
         "--aggressive is an option of convert, validate, batch; give it after the command"),
        # Abbreviated, or with its value after "=", as argparse reads them.
        (["--rep", "machine", "--sc", "full", "convert", "x.tex"],
         "--scope is an option of convert, validate, batch; give it after the command"),
        (["--scope=full", "convert", "x.tex"],
         "--scope is an option of convert, validate, batch; give it after the command"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert capsys.readouterr().err.splitlines()[-1] == f"logicaltex: error: {message}"


def test_abbreviated_options_after_the_command(capsys):
    # After the command, a prefix is resolved among that command's options,
    # even where it also prefixes another command's option; before the
    # command, an abbreviated command option is still named.
    parser = build_parser()
    args = parser.parse_args(["validate", "x.tex", "--c", "cache", "--offline"])
    assert (args.cache_dir, args.offline) == ("cache", True)
    assert parser.parse_args(["degrade", "x.tex", "--s", "0,1"]).seeds == [0, 1]
    args = parser.parse_args(["--rep", "machine", "convert", "x.tex"])
    assert (args.report, args.command) == ("machine", "convert")
    scope = "--scope is an option of convert, validate, batch; give it after the command"
    for argv, message in (
            (["--rep", "machine", "--sc", "full", "convert", "x.tex"], scope),
            (["--scope=full", "convert", "x.tex"], scope),
            # A prefix of --scope, --suffix and --seeds names all their commands.
            (["--s", "0,1", "degrade", "x.tex"],
             "--s is an option of convert, validate, batch, degrade; give it after the command")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert capsys.readouterr().err.splitlines()[-1] == f"logicaltex: error: {message}"


@pytest.mark.parametrize("name, expected", [
    ("hep-th_9901001.tex", "hep-th/9901001"),
    ("2401.01234.visual.tex", "2401.01234"),
    ("notes.tex", None),
])
def test_arxiv_id_inferred_from_the_file_name(name, expected):
    from logicaltex.cli import _infer_arxiv_id

    assert _infer_arxiv_id(Path(name)) == expected


def test_unexpected_exception_is_a_failure(degraded_file, capsys, monkeypatch):
    import logicaltex.cli

    def crash(source, policy):
        raise RuntimeError("boom")

    monkeypatch.setattr(logicaltex.cli, "convert", crash)
    code, out, err = run(capsys, "convert", str(degraded_file))
    assert code == 2
    assert "error: RuntimeError: boom" in err
    code, out, err = run(capsys, "--report", "machine", "convert", str(degraded_file))
    assert code == 2
    assert machine_records(out) == [
        {"schema": 1, "command": "error", "error": "RuntimeError: boom"}]
    code, out, err = run(capsys, "--report", "machine", "convert", str(degraded_file),
                         "--output", "stdout")
    assert code == 2
    assert out == ""
    assert machine_records(err.split("\n", 1)[1]) == [
        {"schema": 1, "command": "error", "error": "RuntimeError: boom"}]


def test_convert_exits_1_on_a_warning(tmp_path, capsys):
    # Bob's marker 2 names no affiliation: the conversion warns.
    path = tmp_path / "doc.tex"
    path.write_text(
        "\\documentclass{article}\n\\begin{document}\n"
        "\\centerline{\\Large\\bf On Random Walks}\n\n"
        "\\centerline{Ann Lee$^1$ and Bob Stone$^2$}\n\n"
        "\\centerline{$^1$Department of Physics, University of X}\n\n"
        "\\section{Introduction}\n\\end{document}\n", encoding="utf-8")
    code, out, _ = run(capsys, "--report", "machine", "convert", str(path))
    warnings = machine_records(out)[0]["warnings"]
    assert code == 1
    assert any("Bob Stone" in w and "no matching affiliation" in w for w in warnings)


def test_batch_writes_an_error_row_and_exits_2_when_a_conversion_raises(
        degraded_file, capsys, monkeypatch):
    import logicaltex.cli

    def crash(source, policy):
        raise RuntimeError("boom")

    monkeypatch.setattr(logicaltex.cli, "convert", crash)
    code, out, _ = run(capsys, "--report", "machine", "batch", str(degraded_file.parent))
    records = machine_records(out)
    assert code == 2
    assert records[0] == {"schema": 1, "command": "batch-file", "path": str(degraded_file),
                          "error": "RuntimeError: boom", "verdict": "fail", "class": "error"}
    assert records[1]["conversion"] == {"pass": 0, "warn": 0, "fail": 1}
    assert records[1]["classes"]["error"] == 1


@pytest.mark.parametrize("text", UNREADABLE_SIDECARS)
def test_batch_notes_an_unreadable_sidecar(degraded_file, capsys, text):
    # The file is converted and checked, not marked as an error.
    degraded_file.with_name("sample.truth.json").write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "--report", "machine", "batch", str(degraded_file.parent),
                       "--scope", "full", "--aggressive")
    row, summary = machine_records(out)
    assert (code, row["class"], row["verdict"], row["metadata"]) == (0, "visual", "pass", None)
    assert [note.split(":")[0] for note in row["notes"]] == ["no reference record"]
    assert summary["classes"]["error"] == 0


def test_batch_exits_1_on_a_warn_verdict(degraded_file, capsys):
    # A sidecar whose title the conversion cannot match scores below the
    # title threshold, so the file's verdict is a warning.
    sidecar = degraded_file.with_name("sample.truth.json")
    truth = json.loads(sidecar.read_text(encoding="utf-8"))
    sidecar.write_text(json.dumps({**truth, "title": "Another Paper Entirely"}),
                       encoding="utf-8")
    code, out, _ = run(capsys, "--report", "machine", "batch", str(degraded_file.parent),
                       "--scope", "full", "--aggressive")
    records = machine_records(out)
    assert code == 1
    assert records[0]["verdict"] == "warn"
    assert records[0]["metadata"]["title_similarity"] < 0.9
    assert records[1]["conversion"] == {"pass": 0, "warn": 1, "fail": 0}


def _count_detect_all(monkeypatch, *modules):
    from logicaltex import detector

    calls = []
    original = detector.detect_all

    def counting(tree):
        calls.append(tree)
        return original(tree)

    for module in (detector, *modules):
        monkeypatch.setattr(module, "detect_all", counting)
    return calls


def test_detect_analyses_each_file_once(degraded_file, tmp_path, capsys, monkeypatch):
    import logicaltex.cli

    calls = _count_detect_all(monkeypatch, logicaltex.cli)
    other = tmp_path / "logical.tex"
    shutil.copy(LOGICAL_FIXTURES[0], other)
    code, _, _ = run(capsys, "detect", str(degraded_file), str(other))
    assert code == 0
    assert len(calls) == 2


def test_batch_detects_source_and_output_once(degraded_file, capsys, monkeypatch):
    import logicaltex.cli
    import logicaltex.converter
    from logicaltex.detector import classify
    from logicaltex.lexer import parse

    calls = _count_detect_all(monkeypatch, logicaltex.cli, logicaltex.converter)
    code, out, _ = run(capsys, "--report", "machine", "batch", str(degraded_file.parent),
                       "--scope", "full", "--aggressive")
    # A batch row reports the source's class only, so the output is
    # never analysed.
    assert len(calls) == 1
    row = next(r for r in machine_records(out) if r["command"] == "batch-file")
    assert row["class"] == classify(parse(degraded_file.read_bytes())).label.value


# cli.main called again and again in one process shares one parser, and
# no call leaves a value behind for the next.

def test_repeated_main_convert_falls_back_to_the_default_policy(degraded_file, capsys,
                                                               monkeypatch):
    _, tuned = run_bytes(monkeypatch, "convert", str(degraded_file), "--scope", "full",
                         "--aggressive", "--output", "stdout")
    _, plain = run_bytes(monkeypatch, "convert", str(degraded_file), "--output", "stdout")
    assert plain == convert(degraded_file.read_bytes(), ConversionPolicy())[0] != tuned


def test_repeated_main_degrade_falls_back_to_the_default_profile(tmp_path, capsys):
    source = tmp_path / "paper.tex"
    shutil.copy(LOGICAL_FIXTURES[0], source)
    profiles = []
    for out, flags in (("centered", ["--profiles", "center-env"]), ("plain", [])):
        code, stdout, _ = run(capsys, "--report", "machine", "degrade", str(source),
                              "--out", str(tmp_path / out), *flags)
        assert code == 0
        profiles.append(machine_records(stdout)[0]["profiles"])
    assert profiles == [["center-env"], ["centerline-style"]]


def test_batch_after_a_usage_error_matches_a_fresh_process(capsys):
    argv = ["--report", "machine", "batch", str(VISUAL_FIXTURES[0].parent), "--jobs", "1"]
    fresh = subprocess.run(
        [sys.executable, "-m", "logicaltex.cli", *argv], capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8",
             "PYTHONPATH": str(Path(logicaltex.__file__).parents[1])}, timeout=120)
    with pytest.raises(SystemExit) as exc:
        main(["batch", argv[-3], "--jobs", "7", "--no-such-flag"])
    assert exc.value.code == 3
    code, out, _ = run(capsys, *argv)
    assert (code, out.encode("utf-8")) == (fresh.returncode, fresh.stdout)


def test_parser_is_built_once(degraded_file, capsys, monkeypatch):
    run(capsys, "detect", str(degraded_file))
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["detect", str(degraded_file)], ["convert", "--output", "stdout",
                                                   str(degraded_file)]):
        assert run(capsys, *argv)[0] <= 1
    assert built == []
    assert build_parser() is build_parser()


def _fresh(code: str, *args: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter without
    site-packages, with this checkout's package on the path."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *args], capture_output=True, text=True,
        timeout=120, env={**os.environ, "COLUMNS": "80",
                          "PYTHONPATH": str(Path(logicaltex.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_one_command_modules_are_imported_where_used(tmp_path):
    # hashlib (manifest digests), difflib (convert's diff),
    # concurrent.futures (batch --jobs > 1) and ElementTree (the arXiv
    # feed) each serve one command, so importing the CLI loads none.
    deferred = ("hashlib", "difflib", "concurrent.futures", "xml.etree.ElementTree")
    assert _fresh("import sys, logicaltex, logicaltex.cli; "
                  f"print([m for m in {deferred!r} if m in sys.modules])").strip() == "[]"
    # Nor do detect and convert load the degrader, the validator or the
    # arXiv client; a human report needs no json either.
    path = tmp_path / "paper.tex"
    shutil.copy(VISUAL_FIXTURES[0], path)
    pipeline = ["logicaltex", "logicaltex.cli", "logicaltex.converter",
                "logicaltex.detector", "logicaltex.lexer", "logicaltex.model"]
    run_main = ("import contextlib, io, sys\n"
                "from logicaltex import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = cli.main(sys.argv[1:])\n"
                "print(code, 'json' in sys.modules, "
                "sorted(m for m in sys.modules if m.startswith('logicaltex')))")
    for report, command in itertools.product(("human", "machine"), ("convert", "detect")):
        loaded = _fresh(run_main, "--report", report, command, str(path))
        assert loaded.strip() == f"0 {report == 'machine'} {pipeline}", (report, command)


def test_batch_workers_inherit_the_validator(tmp_path):
    # batch --jobs 2 imports what each file needs before its process pool
    # starts, so forked workers do not each import it again.
    pairs = tmp_path / "pairs"
    emit_pairs([LOGICAL_FIXTURES[0]], pairs, ("center-env",), seeds=(0,))
    loaded = _fresh(
        "import concurrent.futures, contextlib, io, sys\n"
        "from logicaltex import cli\n"
        "at_start = []\n"
        "class Pool(concurrent.futures.ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        at_start.extend(m for m in ('logicaltex.degrader', 'logicaltex.validator')\n"
        "                        if m in sys.modules)\n"
        "        super().__init__(*args, **kwargs)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, at_start)",
        "batch", "--jobs", "2", str(pairs))
    assert loaded.split(" ", 1)[1].strip() == "['logicaltex.validator']"


def test_help_is_unchanged():
    # Every --help at 80 columns, pinned byte for byte; the degrade
    # profiles' list is printed without loading the degrader.
    printed = _fresh(
        "import contextlib, io, sys\n"
        "from logicaltex import cli\n"
        "for command in ([], ['detect'], ['convert'], ['degrade'], ['validate'], ['batch']):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):\n"
        "        cli.main([*command, '--help'])\n"
        "    print(' '.join(['$ logicaltex', *command, '--help']), out.getvalue(), sep='\\n',"
        " end='')\n"
        "print([m for m in ('logicaltex.degrader', 'logicaltex.validator') if m in sys.modules])")
    expected = (FIXTURES / "cli_help.txt").read_text(encoding="utf-8")
    assert printed == expected + "[]\n"


@pytest.mark.parametrize("keys, expected", [
    ({}, (0.9, 0.9, 0.85)),
    ({"author_threshold": 0.5}, (0.9, 0.5, 0.85)),
    ({"title_threshold": 0.99, "author_threshold": 0.8, "abstract_threshold": 0.7},
     (0.99, 0.8, 0.7)),
])
def test_config_file_thresholds(tmp_path, keys, expected):
    from logicaltex.cli import _merge_config
    from logicaltex.validator import Thresholds

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(keys), encoding="utf-8")
    args = build_parser().parse_args(["--config", str(path), "validate", "x.tex"])
    assert _merge_config(args).thresholds() == Thresholds(*expected)
    assert _merge_config(build_parser().parse_args(["validate", "x.tex"])).thresholds() \
        == Thresholds() == Thresholds(0.9, 0.9, 0.85)
