"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  The round-trip corpus is 100 generated logical
documents x 5 degradation bundles x 3 seeds, fully offline.
"""

import itertools
import random
import time
from dataclasses import dataclass, field

import pytest

from logicaltex.arxiv import ArxivClient
from logicaltex.converter import convert
from logicaltex.degrader import degrade
from logicaltex.detector import DocumentClass, classify
from logicaltex.lexer import encode_source, parse, protected_spans, tokenize
from logicaltex.model import Metadata, extract_logical, strip_styling
from logicaltex.validator import (
    check_body_preservation,
    compare_metadata,
    edit_similarity,
    multiset_f1,
    normalize_for_compare,
    validate_structure,
)

from conftest import (
    AGGRESSIVE,
    ARXIV_CACHE,
    FULL_PROFILES,
    LOGICAL_FIXTURES,
    PROFILE_SETS,
    VISUAL_FIXTURES,
)

SEEDS = (0, 1, 2)


def report(name: str, ok: bool, detail: str = ""):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@dataclass
class SweepStats:
    pairs: int = 0
    title_exact: int = 0
    author_f1_ok: int = 0
    abstract_ok: int = 0
    body_ok: int = 0
    structure_ok: int = 0
    never_logical: int = 0
    max_convert_s: float = 0.0
    failures: list = field(default_factory=list)


@pytest.fixture(scope="session")
def sweep(corpus100) -> SweepStats:
    stats = SweepStats()
    for (name, text), profiles, seed in itertools.product(
            corpus100, PROFILE_SETS, SEEDS):
        visual, truth = degrade(text, profiles, seed)
        t0 = time.perf_counter()
        out, rep = convert(visual, AGGRESSIVE)
        stats.max_convert_s = max(stats.max_convert_s, time.perf_counter() - t0)
        stats.pairs += 1
        tag = (name, profiles, seed)

        if rep.class_before.label is not DocumentClass.LOGICAL:
            stats.never_logical += 1
        else:
            stats.failures.append((*tag, "degraded output classified logical"))

        got = extract_logical(parse(out))
        want_title = normalize_for_compare(truth.title or "")
        got_title = normalize_for_compare(got.title_raw or "")
        if want_title == got_title:
            stats.title_exact += 1
        else:
            stats.failures.append((*tag, "title", got_title, want_title))

        f1 = multiset_f1(
            [normalize_for_compare(strip_styling(a.name_raw)) for a in got.authors],
            [normalize_for_compare(n) for n, _ in truth.authors])
        if f1 >= 0.9:
            stats.author_f1_ok += 1
        else:
            stats.failures.append((*tag, "authors", f1))

        sim = edit_similarity(
            normalize_for_compare(strip_styling(got.abstract_raw or "")),
            normalize_for_compare(truth.abstract or ""))
        if sim >= 0.95:
            stats.abstract_ok += 1
        else:
            stats.failures.append((*tag, "abstract", sim))

        preserved, offset = check_body_preservation(visual, out, rep.plan)
        if preserved:
            stats.body_ok += 1
        else:
            stats.failures.append((*tag, "body", offset))

        if validate_structure(visual, out) == []:
            stats.structure_ok += 1
        else:
            stats.failures.append((*tag, "structure"))
    return stats


def test_round_trip_recovery(sweep):
    n = sweep.pairs
    assert n >= 100 * 5 * 3
    title_rate = sweep.title_exact / n
    author_rate = sweep.author_f1_ok / n
    abstract_rate = sweep.abstract_ok / n
    detail = (f"{n} pairs; title exact {title_rate:.1%} (need >=95%), "
              f"author F1>=0.9 {author_rate:.1%} (need >=90%), "
              f"abstract sim>=0.95 {abstract_rate:.1%} (need >=90%), "
              f"max convert {sweep.max_convert_s * 1000:.0f} ms (limit 1000)")
    ok = (title_rate >= 0.95 and author_rate >= 0.90 and abstract_rate >= 0.90
          and sweep.max_convert_s <= 1.0)
    if not ok:
        for f in sweep.failures[:10]:
            print("  failure:", f)
    report("round-trip recovery", ok, detail)


def test_body_preservation(sweep):
    ok = sweep.body_ok == sweep.pairs
    report("body preservation", ok,
           f"{sweep.body_ok}/{sweep.pairs} conversions byte-preserving (zero tolerance)")


def test_structural_safety(sweep):
    ok = sweep.structure_ok == sweep.pairs
    report("structural safety", ok,
           f"{sweep.structure_ok}/{sweep.pairs} empty diagnostic deltas (zero tolerance)")


def test_degraded_never_classifies_logical(sweep):
    ok = sweep.never_logical == sweep.pairs
    report("degraded-never-logical", ok,
           f"{sweep.never_logical}/{sweep.pairs} degraded docs non-logical")


def test_math_non_interference():
    suite = [p for p in VISUAL_FIXTURES
             if p.name.startswith("math_guard") or p.name == "gaeta_style.tex"]
    assert len(suite) >= 4
    violations = []
    checked_edits = 0
    for path in suite:
        src = path.read_text()
        tree = parse(src)
        protected = protected_spans(tree)
        assert protected, path.name  # the fixtures must actually embed math/verb
        out, rep = convert(src, AGGRESSIVE)
        assert rep.applied, path.name
        for _, edit in rep.applied:
            checked_edits += 1
            for p in protected:
                if edit.span.intersects(p):
                    violations.append((path.name, edit.origin, p))
    report("math non-interference", not violations,
           f"{checked_edits} edits over {len(suite)} fixtures, "
           f"{len(violations)} protected-span intersections (zero tolerance)")


def test_idempotence_on_logical_sources():
    assert len(LOGICAL_FIXTURES) >= 20
    bad = []
    for path in LOGICAL_FIXTURES:
        src = path.read_text()
        for policy in (None, AGGRESSIVE):
            out, rep = (convert(src) if policy is None else convert(src, policy))
            if out != src or rep.applied:
                bad.append((path.name, policy))
    report("idempotence", not bad,
           f"{len(LOGICAL_FIXTURES)} logical sources, byte-identical with zero edits"
           + ("" if not bad else f"; offenders {bad}"))


def test_classification_desk_corpus(corpus100):
    confusions = []
    for path in LOGICAL_FIXTURES[:10]:
        label = classify(parse(path.read_bytes())).label
        if label is not DocumentClass.LOGICAL:
            confusions.append((path.name, label))
    for i, (name, text) in enumerate(corpus100[:10]):
        visual, _ = degrade(text, FULL_PROFILES, seed=i)
        label = classify(parse(visual)).label
        if label is not DocumentClass.VISUAL:
            confusions.append((name, label))
    report("classification", not confusions,
           f"20 labeled documents, {len(confusions)} logical/visual confusions"
           + ("" if not confusions else f": {confusions}"))


def _lev_oracle(a: str, b: str) -> int:
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        dp[i][0] = i
    for j in range(len(b) + 1):
        dp[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                           dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return dp[len(a)][len(b)]


def test_metadata_validation_offline():
    def no_network(url):  # pragma: no cover - must never run
        raise AssertionError(f"live network call attempted: {url}")

    client = ArxivClient(ARXIV_CACHE, transport=no_network)
    ids = sorted(p.stem.replace("_", "/") for p in ARXIV_CACHE.glob("*.json"))
    records: list[Metadata] = [client.fetch(i) for i in ids]
    assert len(records) >= 10

    checked = 0
    worst = 0.0
    for rec in records:
        scores = compare_metadata(rec, rec)
        assert scores.title_similarity == 1.0
        assert scores.author_set_f1 == 1.0
        assert scores.abstract_similarity == 1.0
    for a, b in itertools.permutations(records, 2):
        scores = compare_metadata(a, b)
        for got, (xa, xb) in (
            (scores.title_similarity, (a.title, b.title)),
            (scores.abstract_similarity, (a.abstract, b.abstract)),
        ):
            na, nb = normalize_for_compare(xa), normalize_for_compare(xb)
            want = 1.0 if na == nb else 1.0 - _lev_oracle(na, nb) / max(len(na), len(nb))
            diff = abs(got - want)
            worst = max(worst, diff)
            assert diff <= 1e-9, (a.id, b.id, got, want)
            checked += 1
    report("metadata validation offline", True,
           f"{len(records)} records, {checked} cross-comparisons within 1e-9 "
           f"of the oracle (worst {worst:.2e}), zero live calls")


def test_lossless_lexing(corpus100):
    rng = random.Random(0xACCE55)
    failures = 0
    total = 0
    for _ in range(10_000):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 160)))
        total += 1
        if encode_source(tokenize(data).reassemble()) != data:
            failures += 1
    fixture_sources = [p.read_bytes() for p in LOGICAL_FIXTURES + VISUAL_FIXTURES]
    fixture_sources += [text.encode() for _, text in corpus100]
    for profiles, seed in zip(PROFILE_SETS, (0, 1, 2, 0, 1)):
        visual, _ = degrade(corpus100[0][1], profiles, seed)
        fixture_sources.append(visual.encode())
    for data in fixture_sources:
        total += 1
        if encode_source(tokenize(data).reassemble()) != data:
            failures += 1
    report("lossless lexing", failures == 0,
           f"{total} inputs (10000 random byte strings + {len(fixture_sources)} "
           f"corpus files), {failures} reassembly mismatches")


def test_batch_sweep_tallies(corpus100, tmp_path_factory):
    # operational check over a 100-pair corpus via the batch front end
    import json

    from logicaltex.cli import main
    from logicaltex.degrader import emit_pairs

    base = tmp_path_factory.mktemp("batchsweep")
    corpus = base / "corpus"
    corpus.mkdir()
    for name, text in corpus100:
        (corpus / name).write_text(text, encoding="utf-8")
    pairs = base / "pairs"
    emit_pairs(corpus, pairs, FULL_PROFILES, seeds=(0,))

    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--report", "machine", "batch", str(pairs),
                     "--scope", "full", "--aggressive"])
    records = [json.loads(l) for l in buf.getvalue().splitlines() if l.strip()]
    summary = [r for r in records if r.get("command") == "batch-summary"][0]
    ok = (summary["files"] == 100
          and summary["conversion"]["pass"] >= 95
          and summary["classes"]["visual"] == 100
          and code == 0)
    report("batch sweep", ok,
           f"100 pairs: {summary['conversion']['pass']} pass "
           f"(need >=95), prevalence {summary['visual_prevalence']:.0%} visual")
