#!/usr/bin/env python3
"""Self-test of the partib benchmark.

    python3 perfbench/selftest.py

Run from the repository root.  Builds partib_perfbench (as run.py does), then:

  * runs every workload at the tiny self-test geometry, untraced and traced,
    and checks that the last stdout line is the result JSON with exactly the
    end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json
    declares, each with its declared unit, every end-to-end value positive,
    and failed_frac printed in the table above it;
  * flips one received byte on purpose and checks that the round is counted
    as failed and the run exits non-zero -- proof the byte check fires;
  * copies BENCHMARK.json and perfbench/ alone into a scratch directory and
    checks that run.py fails there without printing a result.

Exit code 0 when every check passes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build step lives there)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
failures = []


def check(cond, what):
    print(("PASS " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def drive(binary, workload, *extra):
    cmd = [str(binary), "--workload", workload, "--seed", "7", "--seconds",
           "0.3", "--tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, lines, result


def check_metrics(workload, trace, result, lines):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    tag = f"{workload} trace={trace}"
    check(result is not None and
          set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: last line is the result object")
    if result is None:
        return
    check(result["correct"] is True and result["failed"] == 0 and
          result["attempted"] >= 1, f"{tag}: correct, nothing failed")
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in declared],
          f"{tag}: exactly the declared metrics, in order")
    for m in declared:
        got = metrics.get(m["name"])
        check(got is not None and got["unit"] == m["unit"],
              f"{tag}: {m['name']} printed with unit {m['unit']}")
        if not trace and got is not None:
            check(got["value"] > 0, f"{tag}: {m['name']} > 0")
    check(any(l.startswith("# failed_frac") for l in lines),
          f"{tag}: failed_frac in the table")


def main():
    binary = run.build()
    traces = run.BUILD / "traces"
    traces.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            extra = ["--trace", str(trace)]
            out = traces / f"selftest-{workload}.json"
            if trace:
                extra += ["--trace-out", str(out)]
            code, lines, result = drive(binary, workload, *extra)
            check(code == 0, f"{workload} trace={trace}: exit code 0")
            check_metrics(workload, trace, result, lines)
            if trace:
                events = json.loads(out.read_text())["traceEvents"]
                check(len(events) > 0 and
                      all({"name", "ts", "dur", "args"} <= set(e)
                          for e in events),
                      f"{workload}: trace file holds spans")

    code, _, result = drive(binary, "shm_latency", "--trace", "0",
                            "--corrupt-round", "2")
    check(code != 0, "corrupted byte: exit code non-zero")
    check(result is not None and result["correct"] is False and
          result["failed"] == 1,
          "corrupted byte: exactly that round counted as failed")

    bare = run.BUILD / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "shm_latency", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=170)
    check(proc.returncode != 0 and "metrics" not in proc.stdout,
          "without the sources: non-zero exit, no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
