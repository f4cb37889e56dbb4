"""One benchmark run in a fresh process.

    python3 perfbench/child.py --result FILE [--trace] [--import-only] -- ARGS...

Times `import nlswkb.cli` (the set-up a user pays on every invocation), then
unless --import-only calls `nlswkb.cli.main(ARGS)` once and times it after
the import, artifact writing included.  Writes one JSON object to FILE:
import_s always; rc, wall_s, cpu_s (user+sys of this process, all threads)
and peak_rss_mb otherwise; with --trace also `layers`, the per-layer numbers
of spans.layer_metrics, computed from the spans kept in memory.

The program is imported from ./src of the working directory and nowhere
else; the run exits 3 if it is not there.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    result_path = opts[opts.index("--result") + 1]
    traced = "--trace" in opts

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "nlswkb", "cli.py")):
        print(f"error: no nlswkb package under {src}", file=sys.stderr)
        return 3
    sys.path.insert(0, src)

    tracer = None
    if traced:
        sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
        from spans import ON_RETURN, Tracer, layer_metrics
        tracer = Tracer(run_id=f"{os.getpid()}")
        tracer.install_fft_counter()

    t0 = time.perf_counter()
    import nlswkb.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(nlswkb.cli.__file__).startswith(src + os.sep):
        print(f"error: nlswkb imported from {nlswkb.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3

    out = {"import_s": import_s}
    if "--import-only" not in opts:
        if tracer is not None:
            tracer.wrap_package("nlswkb", ON_RETURN)
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t1 = time.perf_counter()
        rc = nlswkb.cli.main(cli_args)
        wall = time.perf_counter() - t1
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        out.update({"rc": rc, "wall_s": wall,
                    "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
                    "peak_rss_mb": r1.ru_maxrss / 1024.0})
        if tracer is not None:
            out["layers"] = layer_metrics(tracer.spans, tracer.fft_totals())
            out["spans"] = len(tracer.spans)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
