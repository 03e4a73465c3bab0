"""Set-up probe: a fresh interpreter imports ``logicaltex`` and
``logicaltex.cli`` and converts one small warm-up document.

    python3 perfbench/probe.py SRC_DIR

prints the seconds that took, at the reference speed of ``speed.py``
(calibration loops run before and after, outside the timed part).
Run under ``python3 -X importtime`` it
also yields the per-module import costs on standard error.
"""

WARMUP_DOC = r"""\documentclass{article}
\begin{document}
\centerline{\bf\Large A Note on Warm Starts}
\centerline{Ada Example}
\centerline{Department of Mathematics, University of Westfield}

{\bf Abstract.} {\it We check that the pipeline runs end to end.}

\textbf{\large 1 Introduction}

Some text with $x_k \to 0$ and {\it emphasis}.
\end{document}
"""

if __name__ == "__main__":
    import sys
    import time

    from speed import REFERENCE_LOOP_S, calibration_loop

    loops = [calibration_loop() for _ in range(5)]
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import logicaltex
    import logicaltex.cli
    from logicaltex.converter import ConversionPolicy, Scope, convert

    convert(WARMUP_DOC, ConversionPolicy(scope=Scope.FULL, aggressive=True))
    elapsed = time.perf_counter() - t0
    loops = sorted(loops + [calibration_loop() for _ in range(5)])
    if not logicaltex.__file__.startswith(sys.argv[1]):
        sys.exit(f"imported {logicaltex.__file__}, not the package under {sys.argv[1]}")
    print(elapsed * REFERENCE_LOOP_S / loops[len(loops) // 2])
