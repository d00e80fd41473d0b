"""The rloop benchmark's own tests.

    python3 perfbench/run.py selftest

Checks, in the benchmark's build tree only:
  * the same seed gives a byte-identical workload pcap, another seed a
    different one;
  * a tiny-size run of each workload, untraced and traced, completes with
    every output check passing and prints exactly the metrics BENCHMARK.json
    names, with their units;
  * the live replay's offered rate is the benchmark's constant, whatever the
    seed or the workload;
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    fails without printing a result.
Exit status 0 when every check passes.
"""
import filecmp
import json
import math
import os
import shutil
import subprocess
import sys

import run

OFFERED_PPS = 400000.0
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def setup_pcap(binary, workload, seed, name):
    workdir = run.build_root() / "selftest" / name
    shutil.rmtree(workdir, ignore_errors=True)
    subprocess.run([str(binary), "setup", "--workload", workload,
                    "--seed", str(seed), "--workdir", str(workdir),
                    "--scale", "tiny"], check=True, stdout=subprocess.DEVNULL)
    return workdir / f"{workload}.pcap"


def test_pcap_determinism(binary):
    for workload in run.WORKLOADS:
        a = setup_pcap(binary, workload, 7, f"{workload}-a")
        b = setup_pcap(binary, workload, 7, f"{workload}-b")
        c = setup_pcap(binary, workload, 8, f"{workload}-c")
        check(filecmp.cmp(a, b, shallow=False),
              f"{workload}: seed 7 twice gives byte-identical pcaps")
        check(not filecmp.cmp(a, c, shallow=False),
              f"{workload}: seeds 7 and 8 give different pcaps")


def test_offered_rate_constant(binary):
    out = subprocess.run([str(binary), "describe"], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    fields = dict(line.split() for line in out.splitlines() if line.strip())
    check(float(fields.get("offered_pps", "nan")) == OFFERED_PPS,
          f"offered rate constant is {OFFERED_PPS:g} packets/s")


def test_tiny_runs(binary, bench):
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            for seed in (3, 4) if trace else (3,):
                label = f"{workload} seed {seed} trace {trace} (tiny)"
                code, out = run.run_once(binary, workload, seed, 1, trace,
                                         scale="tiny")
                result = run.result_line(out)
                check(code == 0 and result is not None,
                      f"{label}: exits 0 with a result line")
                if result is None:
                    continue
                check(set(result) == {"correct", "attempted", "failed",
                                      "metrics"},
                      f"{label}: result line has exactly its four keys")
                check(result["correct"] is True and result["failed"] == 0
                      and result["attempted"] >= 1,
                      f"{label}: every output check passes "
                      f"({result['failed']} of {result['attempted']} failed)")
                metrics = result["metrics"]
                check([m["name"] for m in wanted[trace]] == list(metrics),
                      f"{label}: prints exactly the BENCHMARK.json metrics")
                check(all(metrics.get(m["name"], {}).get("unit") == m["unit"]
                          for m in wanted[trace]),
                      f"{label}: units match BENCHMARK.json")
                values = [m["value"] for m in metrics.values()]
                check(all(isinstance(v, (int, float)) and math.isfinite(v)
                          for v in values), f"{label}: values are finite")
                if trace == 0:
                    check(all(v > 0 for v in values),
                          f"{label}: end-to-end values are never 0")
                else:
                    pps = metrics.get("loadgen.offered_pps", {}).get("value", 0)
                    check(abs(pps - OFFERED_PPS) / OFFERED_PPS < 0.02,
                          f"{label}: measured offered rate {pps:.0f}/s is "
                          f"the constant")


def test_bare_directory():
    bare = run.build_root() / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items()
           if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "backbone2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    check(proc.returncode != 0 and run.result_line(proc.stdout) is None,
          "without the repository's sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main(argv):
    if argv:
        print("usage: python3 perfbench/run.py selftest", file=sys.stderr)
        return 2
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    binary = run.build()
    test_offered_rate_constant(binary)
    test_pcap_determinism(binary)
    test_tiny_runs(binary, bench)
    test_bare_directory()
    shutil.rmtree(run.build_root() / "selftest", ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0
