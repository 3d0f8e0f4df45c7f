"""Self-test of the benchmark harness at toy sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit in
both modes, that the output checks and the reference comparison catch
corrupted outputs, and that the harness refuses to run without the sources.
"""

import json
import math
import shutil
import subprocess
import sys

import run  # pins BLAS before numpy is imported

sys.path.insert(0, str(run.SRC))

from workloads import WORKLOADS, build_cycle, parse_csv  # noqa: E402


def check_metrics() -> None:
    spec = run.spec()
    for workload in WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result, details = run.measure(workload, run.DEFAULT_SEED, 0, trace, size="toy",
                                          time_setup_repeats=1)
            assert result["correct"], (workload, details["failures"])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, group, set(got) ^ set(want))
            for name, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), name
            print(f"ok  {workload:8s} {group:10s} {len(got)} metrics with units")
        # the traced counts separate the layers
        m = result["metrics"]
        if workload == "realaxis":
            assert m["weyl.schur_calls"]["value"] == 0
        if workload == "scan":
            assert m["solutions.pq_calls"]["value"] == 0


def _run(op, workdir, ctx):
    if op.config is not None:
        (workdir / f"{op.name}.json").write_text(json.dumps(op.config))
    return run.run_op(op, workdir, ctx)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _recheck(op, raw: bytes, ctx: dict) -> list:
    return op.check(parse_csv(raw)[1], ctx)


def check_corruption(workdir) -> None:
    ops = {op.name: op for op in build_cycle("scan", run.DEFAULT_SEED, 0, "toy")}
    ctx = {}
    scan = _run(ops["weyl-scan.d1"], workdir, ctx)
    report = _run(ops["report.d1"], workdir, ctx)
    assert not scan["problems"] and not report["problems"], (scan, report)
    raw = (workdir / "weyl-scan.d1.csv").read_bytes()
    label = next(r["label"] for r in parse_csv(raw)[1] if r["label"])
    flipped = "outside" if label != "outside" else "ac"
    lines = raw.decode().split("\n")
    i = next(k for k, line in enumerate(lines) if f",{label}," in line)
    lines[i] = lines[i].replace(f",{label},", f",{flipped},", 1)
    bad = "\n".join(lines).encode()
    assert not _recheck(ops["weyl-scan.d1"], raw, {})
    truncated = raw[:raw.rstrip(b"\n").rindex(b"\n") + 1]
    assert _recheck(ops["weyl-scan.d1"], truncated, {}), "missing row not caught"
    flipped_ctx = {}
    _recheck(ops["weyl-scan.d1"], bad, flipped_ctx)  # still a known label
    report_raw = (workdir / "report.d1.csv").read_bytes()
    assert _recheck(ops["report.d1"], report_raw, flipped_ctx), "flipped scan label not caught"
    print("ok  flipped weyl-scan label caught by the report check")

    sec = {op.name: op for op in build_cycle("section", run.DEFAULT_SEED, 0, "toy")}
    assert not _run(sec["measure"], workdir, {})["problems"]
    raw = (workdir / "measure.csv").read_bytes().decode().split("\n")
    cells = raw[2].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)  # one atom's weight, re_w_0_0
    raw[2] = ",".join(cells)
    assert _recheck(sec["measure"], "\n".join(raw).encode(), {}), "mass defect not caught"
    print("ok  perturbed measure weight caught by the total-mass check")

    for workload in WORKLOADS:
        ref = run.load_reference(workload)
        assert ref is not None, f"no reference for {workload}"
        for name, table in ref["ops"].items():
            assert not run.compare_reference({"table": table}, table)
            cells = [(i, j, c) for i, r in enumerate(table["rows"]) for j, c in enumerate(r)]
            text = next(((i, j, c + "x") for i, j, c in cells if c and not _is_number(c)), None)
            number = next(((i, j, repr(float(c) * (1 + 1e-3))) for i, j, c in cells
                           if _is_number(c) and float(c) != 0), None)
            for i, j, c in filter(None, (text, number)):
                rows = [list(r) for r in table["rows"]]
                rows[i][j] = c
                got = {"table": {"header": table["header"], "rows": rows}}
                assert run.compare_reference(got, table), f"{workload}/{name}: {c} not caught"
    print("ok  corrupted reference outputs caught")


def check_refuses_without_sources() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "scan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print(f"ok  without src/ the harness exits {proc.returncode} and prints no result")


def main() -> int:
    workdir = run.OUT / "selftest-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_metrics()
        check_corruption(workdir)
        check_refuses_without_sources()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
