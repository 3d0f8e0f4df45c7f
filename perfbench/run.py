"""bjweyl benchmark harness: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload scan --seed 3 --seconds 30 --trace 0

Run from a checkout of the repository (the harness imports ``src/bjweyl``
next to it).  The workload's ops are generated from ``--seed`` and run in
process through ``bjweyl.cli.main(["--config", ..., "--out", ...])``, the
same entry point as the ``bjweyl`` command, one after the other; the op
sequence (a cycle) repeats until ``--seconds`` have passed.  Every output is
checked.  The last line of standard output is the result object; with
``--trace 1`` its metrics are the per-layer numbers of ``BENCHMARK.json``,
otherwise the end-to-end ones.  The line before it carries provenance, the
op list and details behind some metrics.  See README.md beside this file.
"""

import os

# BLAS must be pinned before numpy is first imported.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 0  # the seed whose outputs are recorded under reference/
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples a tail percentile must leave beyond it
REF_RTOL, REF_ATOL = 1e-6, 1e-12


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def run_op(op, workdir: Path, ctx: dict) -> dict:
    """Run one op, time it, parse and check its output."""
    from bjweyl import cli
    from workloads import parse_csv

    rec = {"op": op.name, "seconds": math.nan, "rows": 0, "error_rows": 0,
           "bytes": 0, "problems": [], "digest": None, "table": None}
    cfg_path, out_path = workdir / f"{op.name}.json", workdir / f"{op.name}.csv"
    out_path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        if op.config is not None:
            status = cli.main(["--config", str(cfg_path), "--out", str(out_path)])
            rec["seconds"] = time.perf_counter() - t0
            raw = out_path.read_bytes()
            header, rows = parse_csv(raw)
        else:
            rows = op.call()
            rec["seconds"] = time.perf_counter() - t0
            status, header = 0, list(rows[0]) if rows else []
            raw = json.dumps(rows, sort_keys=True).encode()
    except (Exception, SystemExit) as exc:
        if math.isnan(rec["seconds"]):
            rec["seconds"] = time.perf_counter() - t0
        rec["problems"].append(f"{type(exc).__name__}: {exc}")
        return rec
    rec.update(rows=len(rows), bytes=len(raw), digest=_digest(raw),
               error_rows=sum(1 for r in rows if r.get("error")),
               table={"header": header, "rows": [[r[h] for h in header] for r in rows]})
    if status != 0:
        rec["problems"].append(f"exit status {status}")
    try:
        rec["problems"] += op.check(rows, ctx)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        rec["problems"].append(f"output unreadable: {type(exc).__name__}: {exc}")
    return rec


def compare_reference(rec: dict, ref: dict) -> list:
    """Labels, verdicts and other text must match exactly; numbers within
    REF_ATOL + REF_RTOL * max(|a|, |b|)."""
    if ref is None:
        return ["no reference output recorded for this op"]
    got = rec["table"]
    if got is None:
        return []  # the op already failed
    if got["header"] != ref["header"] or len(got["rows"]) != len(ref["rows"]):
        return ["output shape differs from the reference"]
    problems = []
    for i, (row, ref_row) in enumerate(zip(got["rows"], ref["rows"])):
        for col, a, b in zip(got["header"], row, ref_row):
            if a == b:
                continue
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                problems.append(f"row {i} {col}: {a!r} != reference {b!r}")
                continue
            if not abs(fa - fb) <= REF_ATOL + REF_RTOL * max(abs(fa), abs(fb)):
                problems.append(f"row {i} {col}: {a} differs from reference {b}")
    return problems[:20]


def load_reference(workload: str):
    path = REFERENCE / f"{workload}.json.gz"
    if not path.is_file():
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def run_cycle(workload: str, seed: int, index: int, size: str, workdir: Path,
              reference=None, keep_tables: bool = False) -> list:
    """One pass over the workload's op sequence; a reference, when given, is
    compared with every op's output.  Parsed outputs are dropped unless
    ``keep_tables``, so the harness's heap does not grow with the run."""
    from workloads import build_cycle

    ops = build_cycle(workload, seed, index, size)
    for op in ops:
        if op.config is not None:
            (workdir / f"{op.name}.json").write_text(json.dumps(op.config))
    ctx, records = {}, []
    for op in ops:
        rec = run_op(op, workdir, ctx)
        if reference is not None:
            rec["problems"] += compare_reference(rec, reference["ops"].get(op.name))
            rec["reference_bytes_identical"] = (
                rec["digest"] == reference["ops"].get(op.name, {}).get("sha256"))
        if not keep_tables:
            rec["table"] = None
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(samples: list) -> tuple[float, int]:
    """The highest whole percentile with TAIL_BEYOND samples above it, and that
    percentile; with fewer than 2 * TAIL_BEYOND samples there is none above the
    median, so the maximum is reported as percentile 100."""
    s = sorted(samples)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return s[-1], 100
    pct = math.floor(100 * (1 - TAIL_BEYOND / n))
    return s[math.ceil(pct / 100 * n) - 1], pct


def time_setup(repeats: int) -> list:
    """Wall time of a fresh interpreter importing bjweyl (numpy, scipy included)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child in 50 ms steps
        subprocess.run([sys.executable, "-c", "import bjweyl.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(cycles: list, setup: list) -> tuple[dict, dict]:
    recs = [r for c in cycles for r in c]
    secs = [r["seconds"] for r in recs]
    rows = sum(r["rows"] for r in recs)
    failed = sum(1 for r in recs if r["problems"])
    tail_s, tail_pct = tail(secs)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r["seconds"] for r in c) for c in cycles),
        "op_p50_s": statistics.median(secs),
        "op_tail_s": tail_s,
        "rows_per_s": statistics.median(sum(r["rows"] for r in c) / sum(r["seconds"] for r in c)
                                        for c in cycles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_op_ratio": 1 - failed / len(recs),
        "clean_row_ratio": 1 - sum(r["error_rows"] for r in recs) / rows if rows else 0.0,
    }
    by_op = {}
    for r in recs:
        by_op.setdefault(r["op"], []).append(r["seconds"])
    details = {"op_tail_percentile": tail_pct, "op_samples": len(secs),
               "op_median_s": {k: statistics.median(v) for k, v in by_op.items()},
               "op_seconds": [[r["op"], r["seconds"]] for r in recs],
               "cycles": len(cycles), "rows": rows, "setup_samples_s": setup}
    return metrics, details


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError, ValueError):
            return "unknown"

    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "bjweyl").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed, "blas_pin": BLAS_PIN, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_revision": rev, "src_sha256": src_hash.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
            time_setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run the workload for ``seconds`` and return (result, details).

    Untraced, every cycle counts toward the end-to-end metrics.  Traced, each
    cycle runs twice on the same inputs, untraced then traced; the spans of
    the traced runs give the per-layer metrics and the paired differences the
    tracing overhead.
    """
    from tracing import Tracer, layer_metrics

    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = load_reference(workload) if seed == DEFAULT_SEED and size == "full" else None
    tracer = Tracer() if trace else None
    try:
        setup = [] if trace else time_setup(time_setup_repeats)
        run_cycle(workload, seed, 0, "toy", workdir)  # lazy imports and first calls
        plain, traced = [], []
        t_start = time.perf_counter()
        index = 0
        while True:
            ref = reference if index == 0 else None
            plain.append(run_cycle(workload, seed, index, size, workdir, ref))
            if trace:
                tracer.install()
                try:
                    traced.append(run_cycle(workload, seed, index, size, workdir))
                finally:
                    tracer.uninstall()
            index += 1
            if time.perf_counter() - t_start >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recs = [r for c in plain + traced for r in c]
    failed = [r for r in recs if r["problems"]]
    details = {"workload": workload, "size": size, "trace": int(trace),
               "provenance": provenance(seed),
               "ops": [r["op"] for r in plain[0]],
               "failures": [{"op": r["op"], "problems": r["problems"][:5]} for r in failed]}
    if reference is not None:
        details["reference"] = {"seed": DEFAULT_SEED, "compared_ops": len(plain[0]),
                                "bytes_identical": all(r["reference_bytes_identical"]
                                                       for r in plain[0])}
    if trace:
        walls = [sum(r["seconds"] for r in c) for c in plain]
        twalls = [sum(r["seconds"] for r in c) for c in traced]
        overhead = statistics.median(t - w for t, w in zip(twalls, walls))
        metrics = layer_metrics(tracer, len(traced), overhead,
                                sum(r["bytes"] for c in traced for r in c))
        details["traced_cycles"] = len(traced)
        details["spans"] = len(tracer.spans)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl.gz")
        group = "per_layer"
    else:
        metrics, extra = end_to_end(plain, setup)
        details.update(extra)
        group = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec()[group]}
    result = {"correct": not failed, "attempted": len(recs), "failed": len(failed),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    return result, details


def record_reference(workload: str) -> Path:
    """Write the default seed's first-cycle outputs as the reference."""
    workdir = OUT / f"work-{workload}-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        recs = run_cycle(workload, DEFAULT_SEED, 0, "full", workdir, keep_tables=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [r for r in recs if r["problems"]]
    if bad:
        raise SystemExit(f"refusing to record failing outputs: {bad[0]['problems'][:3]}")
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{workload}.json.gz"
    doc = {"seed": DEFAULT_SEED, "rtol": REF_RTOL, "atol": REF_ATOL,
           "ops": {r["op"]: {**r["table"], "sha256": r["digest"]} for r in recs}}
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc, separators=(",", ":")).encode())
    return path


def main(argv=None) -> int:
    from workloads import WORKLOADS  # numpy is imported here, after the pin

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="write reference/<workload>.json.gz from the default seed and exit")
    args = ap.parse_args(argv)
    if not (SRC / "bjweyl" / "__init__.py").is_file():
        print(f"bjweyl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bjweyl

    if Path(bjweyl.__file__).resolve().parent != SRC / "bjweyl":
        print(f"imported bjweyl from {bjweyl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        print(record_reference(args.workload))
        return 0
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**details, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
