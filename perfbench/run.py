"""Benchmark of the levysobolev library and CLI: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
Workloads: closed-form-verdicts, density-route, cli-batch (see README.md).
--seconds sizes the run: it measures ceil(seconds / pass_s) passes of the
workload's request list, pass_s being a pass's time on the reference machine.
With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it are a readable report.  The full result, with the environment, is also
written to .perfbench_runs/ (and the spans of a traced run next to it).
Exits non-zero, without a result, when the library cannot be imported from
the checkout.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("closed-form-verdicts", "density-route", "cli-batch")
KNOWN_DEFECTS = {
    "table-parts": "known defect: QuadratureFailure on the tabulated table "
                   "(about 0.78 < u < 1.7, wider on scaled tables)",
}


def _import_library(src: Path) -> None:
    """Import levysobolev from `src`, and from nowhere else."""
    sys.path.insert(0, str(src))
    import levysobolev
    if Path(levysobolev.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"levysobolev imported from {levysobolev.__file__}, not {src}")


def _report(name, seed, trace, out, env, failures, attempted) -> None:
    print(f"perfbench {name} seed={seed} trace={trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for key, value in out["metrics"].items():
        print(f"  {key:36s} {value:.6g} {out['units'][key]}")
    if not trace:
        print(f"  task_tail_s is p{out['tail_percentile']:.1f} of {out['samples']} requests")
    print(f"  failed_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    for kind, detail, reason, incorrect in failures:
        note = "INCORRECT" if incorrect else KNOWN_DEFECTS.get(kind, "failed")
        print(f"  - {kind} {detail}: {reason.splitlines()[-1]} [{note}]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    try:
        _import_library(src)
    except ImportError as exc:
        print(f"perfbench: cannot import levysobolev from the checkout: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(HERE))
    import harness
    from workloads import WORKLOADS

    runs = ROOT / ".perfbench_runs"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = runs / f"{stem}.work"
    runs.mkdir(exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            out = harness.run_traced(workload, args.seconds)
        else:
            out = harness.run_untraced(workload, args.seconds, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = out.pop("passes")
    spans = out.pop("spans", None)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes)
    env = harness.environment(ROOT, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "attempted": attempted,
              "failures": failures, "pass_walls": [p.wall for p in passes],
              "latencies": [p.latencies for p in passes], **out}
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans is not None:
        (runs / f"{stem}.spans.json").write_text(json.dumps(spans))

    _report(args.workload, args.seed, args.trace, out, env, failures, attempted)
    print(json.dumps({
        "correct": not any(f[3] for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": out["units"][k]} for k, v in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
