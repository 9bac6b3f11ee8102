"""Benchmark for signrec: one workload per run, closed loop, one job in flight.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ml1m-train --seed 1 --seconds 30 --trace 0

The run generates its inputs from ``--seed`` in a child process, then runs
jobs one after another for about ``--seconds`` seconds (at least one), each
in a fresh child process that does one set-up and one job. Times are scaled
to a fixed host speed by a reference kernel timed alongside (see
hostclock.py).
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run first
runs the untraced loop, then one traced set-up and job in another child
process, and reports the difference in job wall time as the tracing
overhead. See bench/README.md.
"""
import os

# BLAS thread pools are sized when numpy loads, so pin them before any import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

MIN_SETUPS = 3     # set-ups per run, in job processes or set-up-only ones

log = logging.getLogger("bench")


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "blas_threads_env": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "signrec").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def remember(key: str, digest: str, ledger) -> None:
    """Fail if this checkout recorded another digest for the same key."""
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    known = store.setdefault(key, digest)
    ledger.check(known == digest, f"{key}: digest {digest} differs from an earlier run's {known}")
    tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)


def _child(args, *extra) -> dict:
    """Run this script with ``extra`` options; return its last output line as JSON."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--trace", str(args.trace), *extra],
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(extra)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def prepare(args, ctx) -> None:
    """Make the run's inputs in a child process and save them for the job processes.

    Generating the ratings and the fold runs' embeddings is benchmark work;
    doing it in another process keeps its memory out of peak_rss_mb.
    """
    made = _child(args, "--prepare-into", ctx.workdir)
    ctx.dataset, ctx.input_sha256, ctx.inputs = made["dataset"], made["input_sha256"], made["inputs"]
    for problem in made["problems"]:
        ctx.ledger.fail(problem)
    with open(os.path.join(ctx.workdir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(made, fh)


def job_process(workload, ctx, mode: str, run_id: str) -> dict:
    """One set-up and one job, in this (fresh) process; the result as JSON values.

    Each job runs in a process of its own, as a user's training script or
    ``signrec`` command would, so that no job runs in a heap an earlier job
    left behind: a second ``signrec evaluate`` in one process ran about 15%
    slower than the first. ``mode`` is "job", "traced" (the job with
    tracing) or "setup" (the set-up alone).
    """
    from hostclock import HostClock
    from tracing import Tracer
    from workloads import OperationFailed

    out = {}
    # the traced job runs without the reference kernel: spans hold the program's time only
    ctx.clock = HostClock(reference=mode != "traced")
    tracer = Tracer(run_id) if mode == "traced" else None
    try:
        with contextlib.ExitStack() as stack:
            stack.enter_context(ctx.clock.ticking())
            if tracer:
                stack.enter_context(tracer.installed())
            workload.setup(ctx)
            job = workload.job(ctx) if mode != "setup" else None
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        parts = ctx.clock.scaled_parts()
        out["setup_s"] = parts.pop("setup")
        out["kernel_ms"] = [dur * 1e3 for _, _, dur in ctx.clock.samples]
        if job:
            job.preloop_s = parts.pop("preloop", 0.0)
            job.part_s = parts
            job.part_eval_s = {name: parts[name] for name in job.eval_parts}
            out["job"] = vars(job)
    except OperationFailed:
        # counted as failed already; the parent reports the run as incorrect
        log.error("the job stopped at a failed operation", exc_info=True)
    if tracer:
        metrics, out["absent"] = tracer.layer_metrics()
        out["layer_metrics"] = {k: list(v) for k, v in metrics.items()}
        if out["absent"]:
            log.warning("absent layer metrics: %s", ", ".join(out["absent"]))
        spans_path = WORK / "results" / f"{run_id}-spans.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
    out["ledger"] = ctx.ledger.state()
    return out


def run_job(args, ctx, run_id, mode="job") -> dict:
    """Run job_process() in a child process and merge its ledger."""
    from workloads import JobResult, OperationFailed

    try:
        res = _child(args, "--job-in", ctx.workdir, "--run-id", run_id, "--mode", mode)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        # the process died without handing back its ledger: one failed operation
        ctx.ledger.attempted += 1
        ctx.ledger.fail(f"job process: {exc}")
        raise OperationFailed("a job process failed") from exc
    ctx.ledger.merge(res["ledger"])
    if "setup_s" not in res:
        raise OperationFailed("a job stopped at a failed operation")
    if mode != "setup":
        res["job"] = JobResult(**res["job"])
    return res


def median_parts(jobs, field) -> float:
    """The sum over a job's parts of each part's median scaled time in the run."""
    return sum(statistics.median(getattr(j, field)[part] for j in jobs)
               for part in getattr(jobs[0], field))


def measure(args, workload, ctx, record) -> dict:
    ledger = ctx.ledger
    prepare(args, ctx)
    results = []
    loop_start = time.perf_counter()
    while True:
        results.append(run_job(args, ctx, record["run_id"]))
        elapsed = time.perf_counter() - loop_start
        # closed loop: start another job only if it should end in time
        if elapsed * (len(results) + 1) / len(results) > args.seconds:
            break
    # set-up alone in more fresh processes, so that setup_s is a median of several
    setups = [r["setup_s"] for r in results]
    while len(setups) < MIN_SETUPS:
        setups.append(run_job(args, ctx, record["run_id"], mode="setup")["setup_s"])
    jobs = [r["job"] for r in results]
    kernel_ms = sorted(ms for r in results for ms in r["kernel_ms"])
    record["reference_kernel_ms"] = {"count": len(kernel_ms), "min": kernel_ms[0],
                                     "median": statistics.median(kernel_ms),
                                     "max": kernel_ms[-1]}
    workload.check(ctx)
    digests = {j.digest for j in jobs}
    ledger.check(len(digests) == 1, f"repeated jobs gave different digests {digests}")
    record.update(setups_s=setups, jobs=[vars(j) for j in jobs],
                  peak_rss_mb=[r["peak_rss_mb"] for r in results],
                  input_sha256=ctx.input_sha256, digest=jobs[0].digest)

    # Times are medians over the run's jobs, part by part, of scaled times.
    # Every set-up's and job part's time is kept in the run record.
    untraced_wall = statistics.median(j.program_s for j in jobs)
    if args.trace:
        traced = run_job(args, ctx, record["run_id"], mode="traced")
        ledger.check(traced["job"].digest == jobs[0].digest,
                     "the traced job's digest differs from the untraced job's")
        metrics = {k: tuple(v) for k, v in traced["layer_metrics"].items()}
        metrics["train.triples_per_s"] = (statistics.median(
            j.triples / j.train_loop_s if j.triples else 0.0 for j in jobs), "triples/s")
        metrics["trace.overhead_s"] = (traced["job"].program_s - untraced_wall, "s")
        record["absent"] = traced["absent"]
    else:
        metrics = {
            "setup_s": (statistics.median(setups)
                        + statistics.median(j.preloop_s for j in jobs), "s"),
            "wall_s": (median_parts(jobs, "part_s"), "s"),
            "eval_users_per_s": (jobs[0].users / median_parts(jobs, "part_eval_s"), "users/s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MiB"),
            "ndcg10": (jobs[0].ndcg10, "ratio"),
        }
    key = f"{code_hash()}:{args.workload}:{args.seed}"
    remember("inputs:" + key, ctx.input_sha256, ledger)
    remember("outputs:" + key, jobs[0].digest, ledger)
    return metrics


def run(args, workload) -> dict:
    from workloads import Context, Ledger, OperationFailed

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = WORK / "runs" / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger(log)
    ctx = Context(args.seed, str(workdir), ledger)
    record = {"run_id": run_id, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": environment()}
    metrics = {}
    try:
        metrics = measure(args, workload, ctx, record)
    except OperationFailed:
        # counted as failed already; report the run as incorrect
        log.error("the run stopped at a failed operation", exc_info=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(attempted=ledger.attempted, failed=ledger.failed, problems=ledger.problems,
                  failed_share=ledger.failed / max(ledger.attempted, 1),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    results = WORK / "results" / f"{run_id}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    if not (ROOT / "src" / "signrec" / "__init__.py").is_file():
        print(f"error: no signrec sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the child processes of prepare() and run_job()
    parser.add_argument("--prepare-into", help=argparse.SUPPRESS)
    parser.add_argument("--job-in", help=argparse.SUPPRESS)
    parser.add_argument("--run-id", help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("job", "traced", "setup"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.prepare_into:
        from workloads import Context, Ledger
        ctx = Context(args.seed, args.prepare_into, Ledger(log))
        WORKLOADS[args.workload].prepare(ctx)
        print(json.dumps({"dataset": ctx.dataset, "input_sha256": ctx.input_sha256,
                          "inputs": ctx.inputs, "problems": ctx.ledger.problems}))
        return 0
    if args.job_in:
        from workloads import Context, Ledger
        with open(os.path.join(args.job_in, "inputs.json"), encoding="utf-8") as fh:
            made = json.load(fh)
        ctx = Context(args.seed, args.job_in, Ledger(log), made["dataset"],
                      made["input_sha256"], made["inputs"])
        print(json.dumps(job_process(WORKLOADS[args.workload], ctx, args.mode, args.run_id)))
        return 0

    record = run(args, WORKLOADS[args.workload])
    env = record["environment"]
    print(f"{args.workload} seed {args.seed}: numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, nproc {env['nproc']}, threadpoolctl "
          f"{'present' if env['threadpoolctl'] else 'missing'}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  attempted {record['attempted']}, failed {record['failed']} "
          f"(failed_share {record['failed_share']:.3g}); "
          f"digest {record.get('digest', 'none')[:16]}",
          file=sys.stderr)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
