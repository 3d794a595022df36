"""One benchmark run: set-up timing, the timed ops, checks and the report.

Each op is one complete CLI command (``solvaq.cli.main([...])``, in this
process) on inputs the workload writes from the run's seed, and every op's
report is checked (``workloads.check_report``). Ops run one after another,
each waiting for the previous one (a closed loop with one client). They start
while they are expected to finish within ``--seconds`` of op time, and at
least ``MIN_OPS`` run; op ``i`` uses ``--seed op_seed(seed, i)``. Every config sets
``workers = 1``, and ``run.py`` fixes the BLAS thread count.

``--trace 0`` reports the end-to-end metrics:

- ``op_s_p50``: median wall time per op, over every op attempted;
- ``op_cpu_s_p50``: median process CPU time (user + system) per op;
- ``peak_rss_mb``: the process's peak resident memory (``ru_maxrss``);
- ``setup_s``: median time to import ``solvaq.cli`` in a fresh interpreter,
  over ``SETUP_FIRST`` imports before the ops and ``SETUP_PER_OP`` after each
  op, so that the median spans the whole run rather than its first seconds
  (the host's speed changes over tens of seconds).

Failed ops stay in the timing base. ``failed / attempted`` is the failure
fraction; it is printed but is not a metric, because it is 0 when all is
well.

``--trace 1`` runs pairs of an untraced and a traced op with the same seed,
requires their energies to be bit-identical, and reports per-layer metrics
(medians over the traced ops) plus ``trace.overhead_s``, the traced minus the
untraced median op time.

A readable table goes to standard output and the last line is the JSON
result. The environment, per-op samples and every span go to
``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYER_UNITS, Tracer, installed, layer_medians, op_layers
from workloads import (
    WORKLOADS,
    check_report,
    energies,
    load_report,
    op_seed,
    report_name,
    write_inputs,
)

MIN_OPS = 2
MIN_TRACED_PAIRS = 1
MAX_OPS = 100
SETUP_FIRST = 4
SETUP_PER_OP = 2
TRACE_ROOT = "cli.main"

END_TO_END_UNITS = {"op_s_p50": "s", "op_cpu_s_p50": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import solvaq.cli; "
    "print(repr(time.perf_counter() - t))"
)


def measure_setup(root: Path, count: int, warm: bool) -> list[float]:
    """``count`` import times of ``solvaq.cli``, each in a fresh interpreter.
    With ``warm``, one more import runs first and is not counted: in a fresh
    checkout it compiles the bytecode."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for i in range(count + warm):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=root, env=env,
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"importing solvaq.cli failed:\n{done.stderr}")
        if i >= warm:
            times.append(float(done.stdout.split()[-1]))
    return times


def environment(root: Path, blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": None, "version": None}
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30, check=False,
        ).stdout.strip() or None
    except OSError:
        rev = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "git_revision": rev,
    }


def run_op(workload, config: Path, seed: int, out_dir: Path, tracer=None) -> dict:
    """One CLI command, timed and checked. With a tracer, the layer wrappers
    are installed around it and the op gets a root span."""
    import solvaq.cli as cli

    argv = [workload.command, "--config", str(config), "--seed", str(seed),
            "--out", str(out_dir)]
    (out_dir / report_name(workload)).unlink(missing_ok=True)
    root = None
    problems = []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(installed(tracer))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(TRACE_ROOT):
                    root = len(tracer.spans) - 1
                    code = cli.main(argv)
        except Exception:  # a raising op is a failed op; the run goes on
            code = None
            problems.append(traceback.format_exc())
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    energy = None
    if code != 0:
        problems.append(f"exit code {code}")
    else:
        report = load_report(out_dir, workload)
        problems += check_report(workload, report)
        energy = energies(report)
    return {"seed": seed, "wall_s": wall, "cpu_s": cpu, "energies": energy,
            "problems": problems, "root": root}


def repeat(seconds: float, minimum: int, unit, between=None) -> None:
    """Call ``unit(i)`` for i = 0, 1, ... while the calls so far and the
    next one are expected to take at most ``seconds`` (judged by the median
    call so far), at least ``minimum`` and at most ``MAX_OPS`` times. After
    each call ``between()`` runs, if given; its time is not counted."""
    durations = []
    for i in range(MAX_OPS):
        if i >= minimum:
            if sum(durations) + statistics.median(durations) > seconds:
                return
        t0 = time.perf_counter()
        unit(i)
        durations.append(time.perf_counter() - t0)
        if between is not None:
            between()


def _table(rows) -> str:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows
    )


def run(args, root: Path, blas_threads: int) -> int:
    import solvaq.cli  # noqa: F401  (the import is not part of any op)

    workload = WORKLOADS[args.workload]
    label = f"{workload.name}-s{args.seed}-t{args.trace}"
    work = root / ".bench_runs" / f"{label}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        record = _measure(args, root, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = record["ops"]
    record["env"] = dict(environment(root, blas_threads), workload=workload.name,
                         seed=args.seed, seconds=args.seconds, trace=args.trace,
                         ops=len(ops))
    failed = sum(bool(op["problems"]) for op in ops)
    for op in ops:
        for problem in op["problems"]:
            print(f"op seed {op['seed']} failed: {problem}", file=sys.stderr)
    metrics = record["metrics"]
    out = root / ".bench_runs" / f"{label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"details {out.relative_to(root)}")
    print("env " + json.dumps(record["env"]))
    n = record["samples"]
    rows = [("metric", "value", "unit", "samples")]
    rows += [(k, f"{v['value']:.6g}", v["unit"], n.get(k, ""))
             for k, v in metrics.items()]
    rows.append(("fail_frac", f"{failed / len(ops):.6g} ({failed}/{len(ops)})",
                 "ratio", len(ops)))
    print(_table(rows))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def _measure(args, root: Path, workload, work: Path) -> dict:
    config = write_inputs(workload, args.seed, work)
    if args.trace:
        return _measure_traced(args, root, workload, config, work / "out")
    return _measure_plain(args, root, workload, config, work / "out")


def _measure_plain(args, root: Path, workload, config: Path, out_dir: Path) -> dict:
    setup = measure_setup(root, SETUP_FIRST, warm=True)
    ops: list[dict] = []

    def one(i):
        ops.append(run_op(workload, config, op_seed(args.seed, i), out_dir))

    def probe():
        setup.extend(measure_setup(root, SETUP_PER_OP, warm=False))

    repeat(args.seconds, MIN_OPS, one, between=probe)
    values = {
        "op_s_p50": statistics.median(op["wall_s"] for op in ops),
        "op_cpu_s_p50": statistics.median(op["cpu_s"] for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    samples = {"op_s_p50": len(ops), "op_cpu_s_p50": len(ops),
               "peak_rss_mb": 1, "setup_s": len(setup)}
    return {"ops": ops, "setup_s": setup, "samples": samples,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in values.items()}}


def _measure_traced(args, root: Path, workload, config: Path, out_dir: Path) -> dict:
    tracer = Tracer()
    # The first op of a process also fills the program's caches; it runs
    # untimed so that neither side of the first pair pays for that.
    warm = run_op(workload, config, op_seed(args.seed, 0), out_dir)
    plain: list[dict] = []
    traced: list[dict] = []

    def pair(i):
        seed = op_seed(args.seed, i)
        # alternate which side runs first
        for side in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            side.append(run_op(workload, config, seed, out_dir,
                               tracer=tracer if side is traced else None))
        a, b = plain[-1], traced[-1]
        if a["energies"] != b["energies"]:
            b["problems"].append(
                f"traced energies {b['energies']!r} differ from untraced "
                f"{a['energies']!r}"
            )

    repeat(args.seconds, MIN_TRACED_PAIRS, pair)
    per_op = [op_layers(tracer.spans, op["root"]) for op in traced]
    values = layer_medians(per_op)
    values["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                  - statistics.median(op["wall_s"] for op in plain))
    (root / ".bench_runs" / f"spans-{workload.name}-s{args.seed}.json").write_text(
        json.dumps(tracer.to_records()) + "\n", encoding="utf-8"
    )
    return {"ops": [warm] + plain + traced, "per_op_layers": per_op,
            "samples": {k: len(traced) for k in values},
            "metrics": {k: {"value": v, "unit": LAYER_UNITS[k]}
                        for k, v in values.items()}}
