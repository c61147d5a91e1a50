"""Child process of the cli-batch workload: one `levysobolev` CLI task.

    python3 perfbench/cli_runner.py <task> --config cfg.json --out DIR

Takes the arguments of the `levysobolev` command and calls `cli.main` with
them, importing the library from the checkout's `src/`.  When the
environment variable PERFBENCH_TRACE_OUT names a file, the runner also times
`import levysobolev.cli`, wraps the library's entry points, counts
IntegrationWarning and RuntimeWarning, and writes the spans to that file as
JSON; otherwise it installs nothing.
"""

import json
import os
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv) -> int:
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not trace_out:
        from levysobolev.cli import main as cli_main
        return cli_main(argv)

    sys.path.insert(1, str(HERE))
    import tracer as tr

    rec = tr.Tracer()
    t0 = time.perf_counter()
    import levysobolev.cli
    rec.spans.append(["cli.import", t0, time.perf_counter(), -1, None, None, False])
    rec.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = levysobolev.cli.main(argv)
    finally:
        rec.uninstall()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"spans": rec.spans, "warnings": tr.count_warnings(caught)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
