"""Seeded generators of hostile inputs.

Each generator takes a size and a ``random.Random`` and returns a
document that stresses one of the lexer's math or recovery paths, or
the segmenter.  The workload runs each at size n and 2n, so the ratio
of the two convert times shows whether cost stays near-linear.
"""

from __future__ import annotations

import random

WORDS = ("flux", "basis", "kernel", "orbit", "tensor", "graph", "field",
         "measure", "norm", "domain", "spectrum", "lattice")


def _document(body: str) -> str:
    return "\\documentclass{article}\n\\begin{document}\n" + body + "\\end{document}\n"


def dollar_storm(n: int, rng: random.Random) -> str:
    """n lines that each open inline math and never close it."""
    return _document("".join(f"${rng.choice('abcxyz')}\n" for _ in range(n)))


def unclosed_equations(n: int, rng: random.Random) -> str:
    """n ``equation`` environments that are never ended."""
    return _document("".join(
        f"\\begin{{equation}} x_{{{rng.randrange(100)}}} = {rng.choice(WORDS)}\n"
        for _ in range(n)))


def deep_braces(depth: int, rng: random.Random) -> str:
    """One word nested ``depth`` groups deep."""
    return _document("{" * depth + rng.choice(WORDS) + "}" * depth + "\n")


def giant_line(n: int, rng: random.Random) -> str:
    """n words, inline math and styled groups on a single line."""
    pieces = []
    for _ in range(n):
        word = rng.choice(WORDS)
        pieces.append(rng.choice((word, word, f"\\emph{{{word}}}", f"${word[0]}_k$",
                                  f"{{\\bf {word}}}")))
    return _document(" ".join(pieces) + "\n")


def bold_headings(n: int, rng: random.Random) -> str:
    """n solitary ``\\textbf{\\large N Heading}`` paragraphs, each followed
    by a short body paragraph."""
    blocks = []
    for i in range(n):
        heading = " ".join(rng.choice(WORDS).capitalize() for _ in range(rng.randrange(1, 4)))
        blocks.append(f"\\textbf{{\\large {i + 1} {heading}}}\n\n"
                      f"The {rng.choice(WORDS)} is bounded by the {rng.choice(WORDS)}.\n\n")
    return _document("".join(blocks))


def random_codepoints(n: int, rng: random.Random) -> bytes:
    """About n bytes of random code points, NUL and TeX specials among
    them, interleaved with bytes that are not valid UTF-8."""
    out = bytearray()
    while len(out) < n:
        roll = rng.random()
        if roll < 0.1:
            out += bytes([rng.choice((0x80, 0xBF, 0xC0, 0xC3, 0xE2, 0xF0, 0xFE, 0xFF))])
        elif roll < 0.2:
            out += rng.choice(("\x00", "\\", "{", "}", "$", "%", "\n", "#", "&")).encode()
        else:
            cp = rng.choice((rng.randrange(0x20, 0x7F), rng.randrange(0x80, 0xD800),
                             rng.randrange(0xE000, 0x110000)))
            out += chr(cp).encode("utf-8")
    return bytes(out)


# generator name -> (function, n).  deep_braces keeps a depth whose
# conversion raises RecursionError in the seed code: the defect is
# measured, not sized away.
GENERATORS = {
    "dollar_storm": (dollar_storm, 150),
    "unclosed_equations": (unclosed_equations, 60),
    "deep_braces": (deep_braces, 1200),
    "giant_line": (giant_line, 200),
    "bold_headings": (bold_headings, 25),
    "random_codepoints": (random_codepoints, 2500),
}


def hostile_inputs(seed: int) -> list[tuple[str, int, str | bytes]]:
    """(generator, size, source) for every generator at n and 2n."""
    rng = random.Random(f"hostile-{seed}")
    return [(name, size, fn(size, rng))
            for name, (fn, n) in GENERATORS.items() for size in (n, 2 * n)]
