"""Synthesize visually formatted documents from logical ones.

Each profile rewrites one logical construct into a specific visual form;
the logical elements erased along the way are captured first as a ground
truth sidecar (a ``model.Metadata`` record), so a later conversion back
can be scored instead of trusted.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from pathlib import Path

from .converter import Edit, RewritePlan, apply
from .detector import DocumentClass, classify, document_body
from .lexer import (
    BLANKS,
    Span,
    Token,
    TokenKind,
    build_tree,
    decode_source,
    encode_source,
    parse,
    pauses_collector,
    tokenize,
)
from .model import (
    PAR,
    PROFILE_CODES,
    TOKEN_START,
    LogicalDocument,
    closed,
    extract_logical,
    spliced,
)


class NotLogicalError(Exception):
    """The input does not classify as logical, so there is nothing to
    degrade faithfully."""


def _profile_names(profiles) -> list[str]:
    """The names of a profile set, sorted; an unknown name is a ValueError."""
    names = [str(p) for p in profiles]
    for name in names:
        if name not in PROFILE_CODES:
            raise ValueError(f"unknown degradation profile {name!r}")
    return sorted(names)


def _paragraph_ends(toks: list[Token], i: int, step: int) -> bool:
    """Whether a paragraph ends at token ``i``, read over blanks in the
    direction ``step`` (-1 or 1): the text's edge, a paragraph break and
    ``\\par`` end one, as the line segmenter cuts paragraphs."""
    while 0 <= i < len(toks) and toks[i].kind is TokenKind.WHITESPACE:
        i += step
    if not 0 <= i < len(toks):
        return True
    t = toks[i]
    return t.kind is TokenKind.PAR_BREAK or t.kind is TokenKind.CONTROL_WORD and t.value == PAR


def _wrap_point(text: str) -> int | None:
    """Where an affiliation may wrap: after its first comma that a blank
    follows and that stands outside every group, math and comment, or
    None when it has none."""
    for nd in build_tree(tokenize(text)).nodes:
        if nd.__class__ is Token and nd.kind is TokenKind.TEXT:
            at = text.find(", ", nd.start, nd.end + 1)  # the blank may be a token of its own
            if at >= 0:
                return at + 1
    return None


# Marker alphabets.  The "text" families stay out of math mode entirely.
_NUM_FAMILIES = (
    ("$^{%s}$", "$^{%s}$"),
    ("\\textsuperscript{%s}", "\\textsuperscript{%s}"),
)
_SYM_MATH = ("*", "\\dagger", "\\ddagger", "\\S", "\\P", "\\|")
_SYM_TEXT = ("\\dag", "\\ddag", "\\S", "\\P")


class _Degrader:
    def __init__(self, names: list[str], seed: int):
        self.names = set(names)
        self.rng = random.Random(seed)

    # -- body constructs: drawn first ---------------------------------------

    def degrade_sections(self, doc: LogicalDocument) -> list[Edit]:
        if "bold-solitary-sections" not in self.names or not doc.sections:
            return []
        variant = self.rng.choice(("skip-bold", "textbf-large"))
        counters = [0, 0, 0]
        edits = []
        toks = doc.stream.tokens
        for sec in doc.sections:
            lvl = min(sec.level, 3)
            heading = closed(sec.heading_raw)
            if not sec.starred:  # a starred section prints no number and steps no counter
                counters[lvl - 1] += 1
                for k in range(lvl, 3):
                    counters[k] = 0
                num = ".".join(str(c) for c in counters[:lvl])
                heading = f"{num}. {heading}" if variant == "skip-bold" else f"{num} {heading}"
            if variant == "skip-bold":
                lead = "\\medskip" if lvl == 1 else "\\smallskip"
                repl = f"{lead}\\noindent{{\\bf {heading}}}\\par"
                has_trailing_break = True
            else:
                if lvl == 1:
                    repl = f"\\textbf{{\\large {heading}}}"
                else:
                    repl = f"\\textbf{{{heading}}}"
                has_trailing_break = False
            # the header must sit in a paragraph of its own even when the
            # surrounding source has no blank lines: the tokens before the
            # command and after its closing brace tell
            i = bisect_left(toks, sec.span.start, key=TOKEN_START)
            k = bisect_left(toks, sec.span.end, i, key=TOKEN_START)
            if not _paragraph_ends(toks, i - 1, -1):
                repl = "\\par" + repl
            if not has_trailing_break and not _paragraph_ends(toks, k, 1):
                repl = repl + "\\par"
            # A letter right after \par would lengthen its name.
            after = doc.stream.source[sec.span.end:sec.span.end + 1]
            if after.isascii() and after.isalpha():
                repl = repl + " "
            edits.append(Edit(sec.span, repl, "degrade-section"))
        return edits

    def degrade_emphasis(self, doc: LogicalDocument) -> list[Edit]:
        if "inline-emphasis" not in self.names:
            return []
        edits = []
        for raw, span in doc.emphases:
            style = "it" if self.rng.random() < 0.75 else "bf"
            edits.append(Edit(span, f"{{\\{style} {raw}}}", "degrade-emphasis"))
        return edits

    # -- front matter: drawn after the body ---------------------------------

    def fm_style(self) -> str | None:
        explicit = [n for n in ("centerline-style", "center-env") if n in self.names]
        # marker and abstract profiles need visually formatted front matter
        # to hang off, so they imply the default centerline treatment
        implied = self.marker_mode() is not None or "unlabeled-abstract" in self.names
        if not explicit and not implied:
            return None
        if len(explicit) == 2:
            return self.rng.choice(("centerline-style", "center-env"))
        if explicit:
            return explicit[0]
        return "centerline-style"

    def marker_mode(self) -> str | None:
        modes = [n for n in ("numbered-markers", "symbol-markers") if n in self.names]
        if not modes:
            return None
        if len(modes) == 2:
            return self.rng.choice(modes)
        return modes[0]

    def build_front_matter(self, doc: LogicalDocument, style: str) -> str:
        rng = self.rng
        centerline = style == "centerline-style"

        title_lines: list[str] = []
        if doc.title_raw is not None:
            deco = rng.choice(("\\bf", "\\large\\bf", "\\Large\\bf", "\\Large \\bf"))
            title = closed(doc.title_raw)
            if centerline:
                title_lines.append(f"\\centerline{{{deco} {title}}}")
            else:
                title_lines.append(f"{{{deco} {title}}}")

        # Unique affiliation texts in first-seen order; edges by index.
        first_index: dict[str, int] = {}
        edges = [[first_index.setdefault(aff, len(first_index)) for aff in author.affiliations_raw]
                 for author in doc.authors]
        aff_texts = list(first_index)
        author_names = [closed(a.name_raw) for a in doc.authors]

        mode = self.marker_mode()
        use_markers = mode is not None and bool(aff_texts)
        author_lines: list[str] = []
        aff_lines: list[str] = []
        if doc.authors:
            if use_markers:
                if mode == "numbered-markers":
                    author_fmt, aff_fmt = rng.choice(_NUM_FAMILIES)
                    renderings = [str(j + 1) for j in range(len(aff_texts))]
                    author_mark = lambda idxs: author_fmt % ",".join(renderings[j] for j in idxs) if idxs else ""
                    aff_mark = lambda j: aff_fmt % renderings[j]
                else:
                    family = rng.choice(("math", "text"))
                    if family == "math":
                        syms = _SYM_MATH
                        author_mark = lambda idxs: "".join(f"$^{{{syms[j % len(syms)]}}}$" for j in idxs)
                        aff_mark = lambda j: f"$^{{{syms[j % len(syms)]}}}$"
                    else:
                        syms = _SYM_TEXT
                        author_mark = lambda idxs: "".join(syms[j % len(syms)] for j in idxs)
                        aff_mark = lambda j: syms[j % len(syms)] + " "
                marked = [name + author_mark(idxs) for name, idxs in zip(author_names, edges)]
                if len(marked) > 1 and rng.random() < 0.35:
                    author_lines.extend(marked)  # one line per author
                else:
                    sep = rng.choice((", ", " and ", ", "))
                    author_lines.append(sep.join(marked))
                for j, text in enumerate(aff_texts):
                    aff_lines.extend(self._affiliation_rows(aff_mark(j), text))
            elif len(aff_texts) <= 1:
                sep = rng.choice((", ", " and "))
                author_lines.append(sep.join(author_names))
                for text in aff_texts:
                    aff_lines.extend(self._affiliation_rows("", text))
            else:
                # several affiliations, no markers: each author sits right
                # above its own affiliation lines
                for name, a in zip(author_names, doc.authors):
                    author_lines.append(name)
                    for text in a.affiliations_raw:
                        author_lines.extend(self._affiliation_rows("", text))

        if centerline:
            for nm in author_lines:
                title_lines.append(f"\\centerline{{{nm}}}")
            for af in aff_lines:
                title_lines.append(f"\\centerline{{{af}}}")
            joiner = rng.choice(("\n", "\n\\smallskip\n", "\n\n"))
            return joiner.join(title_lines)
        rows = title_lines + author_lines
        italic_affs = rng.random() < 0.5
        for af in aff_lines:
            rows.append(f"{{\\it {af}}}" if italic_affs else af)
        gap = rng.choice(("\\\\[2mm]", "\\\\[1mm]", "\\\\"))
        body = (gap + "\n").join(rows)
        return "\\begin{center}\n" + body + "\n\\end{center}"

    def _affiliation_rows(self, lead: str, text: str) -> list[str]:
        # Long affiliations sometimes wrap onto a continuation line, which
        # the extractor is expected to re-join.
        if len(text) > 45 and ", " in text and self.rng.random() < 0.3:
            cut = _wrap_point(text)
            if cut is not None:
                return [closed(lead + text[:cut]), closed(text[cut:].strip(BLANKS))]
        return [closed(lead + text)]

    def build_abstract(self, text: str) -> str:
        rng = self.rng
        if "unlabeled-abstract" in self.names:
            return "\\begin{center}\n{\\small " + text + "}\n\\end{center}"
        form = rng.choice(("bf-it", "bf-colon", "noindent", "label-line"))
        if form == "bf-it":
            return "{\\bf Abstract. }{\\it " + text + "}"
        if form == "bf-colon":
            return "{\\bf Abstract: }" + text
        if form == "noindent":
            return "\\noindent{\\bf ABSTRACT.} " + text
        return "\\centerline{\\bf Abstract}\n\n" + text

    def merge_front_matter(self, doc: LogicalDocument, body: list[Edit],
                           body_start: int) -> list[Edit]:
        """The front matter's edits merged with the body's edits ``body``,
        all against the source, whose document body starts at
        ``body_start``.  A command's argument is taken, not entered, so
        only the abstract environment can hold a body edit or a
        front-matter command: an edit of the abstract renders its text
        with the body edits and the removals inside it applied, and takes
        them over."""
        style = self.fm_style()
        fm_active = style is not None and (doc.title_raw is not None or doc.authors)
        abstract_active = (fm_active or "unlabeled-abstract" in self.names) \
            and doc.abstract_span is not None
        anchor = None
        removals: list[Edit] = []
        if fm_active:
            # The block goes where \maketitle, the title or the first author
            # block was, outside the abstract: one inside it is removed.
            candidates = [span for span in (doc.maketitle_span, doc.title_span,
                                            *doc.author_block_spans) if span is not None]
            if abstract_active:
                candidates = [span for span in candidates
                              if not doc.abstract_inner.contains_span(span)]
            anchor = candidates[0] if candidates else None
            if anchor is not None and anchor.start < body_start:
                # A block in the preamble would be set before
                # \begin{document}: it goes where the body starts, and the
                # command it would have replaced is removed.
                anchor = Span(body_start, body_start)
            removals = [Edit(span, "", "degrade-front-matter")
                        for span in (doc.title_span, doc.date_span, *doc.author_block_spans,
                                     doc.maketitle_span)
                        if span is not None and span != anchor]
        edits = body + removals
        rendered_abstract = None
        if abstract_active:
            inner = doc.abstract_inner
            held = [e for e in edits if inner.contains_span(e.span)]
            edits = [e for e in edits if not inner.contains_span(e.span)]
            rendered_abstract = self.build_abstract(closed(
                spliced(doc.stream.source, inner, [(e.span, e.replacement) for e in held])
                .strip(BLANKS)))
        abstract_handled = False
        if fm_active:
            block = self.build_front_matter(doc, style)
            if (rendered_abstract is not None and anchor is not None
                    and doc.abstract_span.start < anchor.start):
                # The source kept its abstract environment above \maketitle;
                # visually formatted papers put the abstract text below the
                # author block, so move it there.
                block = block + "\n\n" + rendered_abstract
                edits.append(Edit(doc.abstract_span, "", "degrade-abstract"))
                abstract_handled = True
            if anchor is not None:
                if not anchor.length:  # set apart from the body's text
                    block = "\n" + block + "\n"
                edits.append(Edit(anchor, block, "degrade-front-matter"))
        if rendered_abstract is not None and not abstract_handled:
            edits.append(Edit(doc.abstract_span, rendered_abstract, "degrade-abstract"))
        edits.sort(key=lambda e: (e.span.start, e.span.end))
        return edits


@pauses_collector
def degrade(source: str | bytes, profiles, seed: int = 0):
    """Rewrite a logical document into a visually formatted one.

    Returns (visual source, ground truth).  Identical inputs, profile
    sets and seeds produce identical bytes.  The source is parsed and its
    logical structure extracted once; the section, emphasis and front
    matter edits are all planned against that one extraction, in source
    offsets and in that order of random draws, and applied as one plan.
    """
    text = decode_source(source)
    tree = parse(text)
    if classify(tree).label is not DocumentClass.LOGICAL:
        raise NotLogicalError("input does not classify as logically formatted")
    names = _profile_names(profiles)
    doc = extract_logical(tree)
    truth = doc.metadata()
    worker = _Degrader(names, seed)

    body = worker.degrade_sections(doc) + worker.degrade_emphasis(doc)
    edits = worker.merge_front_matter(doc, body, document_body(tree)[1].start)
    visual = apply(text, RewritePlan(tuple(edits))) if edits else text

    if isinstance(source, bytes):
        return encode_source(visual), truth
    return visual, truth


# ---------------------------------------------------------------------------
# Corpus emission
# ---------------------------------------------------------------------------


def _sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def profile_tag(profiles) -> str:
    return "-".join(PROFILE_CODES[name] for name in _profile_names(profiles))


def _row_key(row: dict) -> tuple:
    return row["source"], tuple(row["profiles"]), row["seed"]


def emit_pairs(corpus: str | Path | list[Path], out_dir: str | Path, profiles,
               seeds=(0,)) -> list[dict]:
    """Degrade every .tex file of a corpus directory, or each of a list of
    files, once per seed, writing the visual file, the logical original,
    a ground-truth sidecar and one manifest row per pair.  Files that are
    not logical become skip records, and so does a pair whose files belong
    to another source, named like it earlier in this call or in a row of
    the manifest; the run continues.  A row of this call replaces the
    manifest's earlier rows of its source, profiles and seed, except that
    a skip keeps the row of a pair whose files it leaves in place."""
    # A repeated file or seed would rewrite its own pairs: each counts once.
    paths = sorted(Path(corpus).glob("*.tex")) if isinstance(corpus, (str, Path)) \
        else list(dict.fromkeys(map(Path, corpus)))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.jsonl"
    earlier = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()
               if line.strip()] if manifest.exists() else []
    # visual file name -> the source whose pair it is
    owners = {Path(r["visual"]).name: r["source"] for r in earlier if "visual" in r}
    names = _profile_names(profiles)
    tag = profile_tag(names)
    rows: list[dict] = []
    for path in paths:
        data = path.read_bytes()
        for seed in dict.fromkeys(seeds):
            stem = f"{path.stem}__{tag}_s{seed}"
            visual_path = out / f"{stem}.visual.tex"
            owner = owners.setdefault(visual_path.name, str(path))
            skipped = None if owner == str(path) else \
                f"its pairs would overwrite those of {owner}"
            if skipped is None:
                try:
                    visual, truth = degrade(data, names, seed)
                except NotLogicalError as exc:
                    skipped = str(exc)
            if skipped is not None:
                rows.append({
                    "source": str(path),
                    "profiles": list(names),
                    "seed": seed,
                    "skipped": skipped,
                })
                continue
            logical_path = out / f"{stem}.logical.tex"
            sidecar_path = out / f"{stem}.truth.json"
            visual_path.write_bytes(visual)
            logical_path.write_bytes(data)
            sidecar_path.write_text(truth.to_json(), encoding="utf-8")
            rows.append({
                "source": str(path),
                "visual": str(visual_path),
                "logical": str(logical_path),
                "sidecar": str(sidecar_path),
                "profiles": list(names),
                "seed": seed,
                "checksums": {
                    "source": _sha256(data),
                    "visual": _sha256(visual),
                    "sidecar": _sha256(sidecar_path.read_bytes()),
                },
            })
    paired = {_row_key(r) for r in rows if "visual" in r}
    keys = {_row_key(r) for r in rows}
    kept = [r for r in earlier if _row_key(r) not in (paired if "visual" in r else keys)]
    # Written aside and moved over, so a failed write leaves the old manifest.
    staged = manifest.with_name(manifest.name + ".tmp")
    with staged.open("w", encoding="utf-8") as fh:
        for row in kept + rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    staged.replace(manifest)
    return rows
