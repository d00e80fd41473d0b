#!/usr/bin/env python3
"""The rloop benchmark: one command per (workload, seed).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. The first run builds perfbench/ (which
compiles ../src) into $CARGO_TARGET_DIR or .bench_build. Each run then:

  1. sets up: simulates the workload from its seed and writes its pcap,
     three times, timing each (setup_s is the median);
  2. measures: with --trace 0 every end-to-end metric, with --trace 1 every
     per-layer metric plus a span file; every output is checked;
  3. prints a metric table and, as its last line, one JSON result object.

It exits 1 when an output check failed and 2 when it could not run at all.

Other modes:

    python3 perfbench/run.py spread --workload W [--runs 10] [--seed0 1]
        [--seconds S] [--trace 0|1]
            Runs the workload N times on seeds seed0.. and prints, per
            metric, the median, the quartiles and (q3 - q1) / median.
    python3 perfbench/run.py selftest
            The benchmark's own tests (perfbench/selftest.py).
    python3 perfbench/run.py pin --seeds 1-10
            Rewrites perfbench/pins.txt, the loop-set digests pinned per
            (trace, seed).

See perfbench/BENCHMARK.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.txt"
SETUP_REPEAT = 3
RUN_TIMEOUT_S = 170
WORKLOADS = ("backbone2", "loop_storm")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_root() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "rloop_perfbench"


def run_once(binary, workload, seed, seconds, trace, scale="full"):
    """One benchmark run; returns (exit code, stdout text)."""
    workdir = build_root() / "runs" / f"{workload}-{seed}-{scale}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    started = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed),
              "--workdir", str(workdir), "--scale", scale]
    try:
        subprocess.run([str(binary), "setup", *common,
                        "--repeat", str(SETUP_REPEAT)],
                       check=True, stdout=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
        left = RUN_TIMEOUT_S - (time.monotonic() - started)
        proc = subprocess.run(
            [str(binary), "measure", *common, "--seconds", str(seconds),
             "--trace", str(trace), "--pins", str(PINS)],
            stdout=subprocess.PIPE, text=True, timeout=max(1.0, left))
        return proc.returncode, proc.stdout
    finally:
        # The pcap and checkpoints are large; reports and spans stay.
        for f in workdir.glob("*.pcap*"):
            f.unlink()
        shutil.rmtree(workdir / "ckpt", ignore_errors=True)


def result_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def cmd_run(args):
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    try:
        code, out = run_once(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    except subprocess.CalledProcessError as e:
        log(f"set-up failed: {e}")
        return 2
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    if result_line(out) is None:
        sys.stdout.write(out)
        log("the measuring binary printed no result")
        return 2
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / med) if med else float("inf")


def cmd_spread(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    samples = {}
    units = {}
    failed_runs = 0
    for i in range(args.runs):
        seed = args.seed0 + i
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        result = result_line(proc.stdout)
        if proc.returncode != 0 or result is None or not result["correct"]:
            failed_runs += 1
            log(f"seed {seed}: exit {proc.returncode}, result {result}")
            continue
        for name, m in result["metrics"].items():
            samples.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        log(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    print(f"# spread of {args.workload} over {args.runs} seeds from "
          f"{args.seed0}, trace={args.trace}, {failed_runs} failed runs")
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    worst_ok = failed_runs == 0
    for name, values in samples.items():
        med, q1, q3, rel = spread(values)
        bound = bounds.get(name)
        if bound is None or args.trace:
            verdict = ""
        else:
            verdict = "ok" if rel < bound / 3 else (
                "within bound" if rel <= bound else "OVER BOUND")
            worst_ok = worst_ok and rel <= bound
        print(f"{name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.4f} "
              f"{'' if bound is None else bound:>6}  {verdict} "
              f"[{units[name]}, n={len(values)}]")
    return 0 if worst_ok else 1


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def cmd_pin(args):
    binary = build()
    lines = ["# Loop-set digests of serial detect_loops, pinned per (trace, "
             "seed).", "# Regenerate: python3 perfbench/run.py pin "
             f"--seeds {args.seeds}"]
    for trace in ("backbone2", "loop_storm"):
        for seed in parse_seeds(args.seeds):
            workdir = build_root() / "runs" / f"pin-{trace}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            subprocess.run([str(binary), "setup", "--workload", trace,
                            "--seed", str(seed), "--workdir", str(workdir)],
                           check=True, stdout=sys.stderr)
            digest = subprocess.run(
                [str(binary), "digest", "--pcap", str(workdir / f"{trace}.pcap")],
                check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
            shutil.rmtree(workdir, ignore_errors=True)
            lines.append(f"{trace} {seed} {digest}")
            log(lines[-1])
    PINS.write_text("\n".join(lines) + "\n")
    return 0


def main(argv):
    if argv and argv[0] in ("spread", "selftest", "pin"):
        mode, argv = argv[0], argv[1:]
    else:
        mode = "run"
    p = argparse.ArgumentParser(prog="run.py")
    if mode == "selftest":
        sys.path.insert(0, str(HERE))
        import selftest
        return selftest.main(argv)
    if mode == "pin":
        p.add_argument("--seeds", required=True)
        return cmd_pin(p.parse_args(argv))
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    if mode == "spread":
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seed0", type=int, default=1)
        return cmd_spread(p.parse_args(argv))
    p.add_argument("--seed", type=int, required=True)
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
