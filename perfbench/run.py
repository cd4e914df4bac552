"""gbdp benchmark driver.

    python3 perfbench/run.py --workload ref|cube|band --seed N --seconds S
                             --trace 0|1

Run from the root of a checkout.  The driver imports only the standard
library, so the peak RSS it reads for each child is the child's own.  It
starts one subprocess at a time, closed loop, with the checkout's `src`
first on PYTHONPATH:

1. `worker.py setup` makes the inputs from the seed and the oracles.
2. With --trace 0 it runs the five CLI subcommands and the library tour in
   rotation, each as a subprocess, for --seconds seconds; then
   `worker.py check` checks every output.  It prints every end-to-end
   metric of BENCHMARK.json.
3. With --trace 1 it times `python -m gbdp --help`, then `worker.py trace`
   replays each subcommand and the tour with spans around every call into
   gbdp.  It prints every per-layer metric of BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it give the
environment and a per-check summary.  NOTES.md explains the workloads
and metrics.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from workloads import INPUT_SETS, KSTEP_K, SIM_K, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170  # every run must end within 180 s
LOOP_DEADLINE_S = 120  # start no timed operation after this
CLI_OPS = ("check-commute", "kstep", "normalize", "simulate", "ranks")
OP_BUDGET_S = 0.5  # least time per operation and rotation
STARTUP_REPS = 5  # timed `gbdp --help` runs in the traced run


class Runner:
    """Starts one child at a time and reads its wall time and peak RSS."""

    def __init__(self, root, work):
        self.work = work
        self.began = time.perf_counter()
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.count = 0

    def elapsed(self):
        return time.perf_counter() - self.began

    def spawn(self, argv):
        """Run argv to completion; returns (exit code, wall s, peak RSS MB,
        stdout path).  A child still running at the deadline is killed."""
        self.count += 1
        stdout = os.path.join(self.work, "stdout-%d.txt" % self.count)
        stderr = os.path.join(self.work, "stderr-%d.txt" % self.count)
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            killer = threading.Timer(
                max(1.0, DEADLINE_S - self.elapsed()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code not in (0, 1):
            with open(stderr) as f:
                tail = f.read()[-2000:]
            print("child %s exited %d: %s" % (argv[1:4], code, tail),
                  file=sys.stderr)
        return code, wall, usage.ru_maxrss / 1024.0, stdout

    def gbdp(self, *args):
        return self.spawn([sys.executable, "-m", "gbdp", *args])

    def worker(self, mode, *args):
        """Run a worker mode and return its JSON result."""
        out = os.path.join(self.work, "%s-%d.json" % (mode, self.count + 1))
        code, _, _, _ = self.spawn(
            [sys.executable, os.path.join(HERE, "worker.py"), mode,
             "--out", out, *args])
        if code != 0:
            raise SystemExit("worker %s failed with exit %d" % (mode, code))
        with open(out) as f:
            return json.load(f)


def cli_args(kind, w, seed, work, k, i):
    """Arguments of one CLI run on input set i; k numbers its output."""
    d = os.path.join(work, "inputs")
    inp = {name: os.path.join(d, "%s-%d.json" % (name, i))
           for name in ("P", "PN", "M")}
    if kind == "check-commute":
        return ["check-commute", "--model", inp["M"]], None
    if kind == "kstep":
        out = os.path.join(work, "kstep-%d.csv" % k)
        return ["kstep", "--params", inp["PN"],
                "--k", str(KSTEP_K), "--out", out], out
    if kind == "normalize":
        out = os.path.join(work, "normalize-%d.json" % k)
        return ["normalize", "--params", inp["P"],
                "--out", out], out
    if kind == "simulate":
        out = os.path.join(work, "simulate-%d.csv" % k)
        return ["simulate", "--model", inp["M"],
                "--from", ",".join(map(str, w["start"])), "--k", str(SIM_K),
                "--trials", str(w["trials"]), "--seed", str(seed),
                "--out", out], out
    return ["ranks", "--dims", ",".join(map(str, w["rank_dims"])),
            "--l", str(w["rank_l"])], None


def one_verdict(verdicts):
    """One tour call is one operation: it fails if any of its passes does."""
    return min(verdicts, key=lambda v: (v["ok"], v["strict_ok"]))


def measure(run, w, a, base):
    """Closed loop over the five subcommands and the tour until --seconds
    have passed and each has run at least once; then check every output.
    In each rotation every operation runs for at least OP_BUDGET_S, so a
    quick subcommand gets more samples than a slow one."""
    ops, walls, tour_times, verdicts = [], {}, [], []
    kinds = CLI_OPS + ("tour",)
    run.gbdp("--help")  # warm the file cache; not timed
    t0 = time.perf_counter()
    k = 0
    while k < len(kinds) or (time.perf_counter() - t0 < a.seconds
                             and run.elapsed() < LOOP_DEADLINE_S):
        kind = kinds[k % len(kinds)]
        rotation = k // len(kinds)
        k += 1
        if kind == "tour":
            res = run.worker("tour", *base, "--budget", str(OP_BUDGET_S),
                             "--start", str(rotation))
            tour_times += res["tour_s"]
            verdicts.append(one_verdict(res["verdicts"]))
            continue
        i = rotation % INPUT_SETS
        spent = 0.0
        while spent < OP_BUDGET_S:
            argv, out = cli_args(kind, w, a.seed, run.work, len(ops), i)
            code, wall, rss, stdout = run.gbdp(*argv)
            spent += wall
            walls.setdefault(kind, []).append(wall)
            ops.append({"kind": kind, "set": i, "exit": code, "rss_mb": rss,
                        "stdout": stdout, "out": out})
    ops_path = os.path.join(run.work, "ops.json")
    with open(ops_path, "w") as f:
        json.dump(ops, f)
    verdicts += run.worker("check", *base, "--ops", ops_path)["verdicts"]
    metrics = {kind.replace("-", "_") + "_s": statistics.median(ts)
               for kind, ts in walls.items()}
    metrics["tour_s"] = statistics.median(tour_times)
    metrics["peak_rss_mb"] = max(op["rss_mb"] for op in ops)
    samples = {kind: len(ts) for kind, ts in walls.items()}
    samples["tour"] = len(tour_times)
    return metrics, verdicts, samples


def measure_traced(run, w, a, base):
    run.gbdp("--help")  # warm the file cache; not timed
    t0 = time.perf_counter()
    startup = [run.gbdp("--help")[1] for _ in range(STARTUP_REPS)]
    budget = max(1.0, a.seconds - (time.perf_counter() - t0))
    spans = os.path.join(
        os.path.dirname(run.work),
        "spans-%s-seed%d.jsonl" % (a.workload, a.seed))
    res = run.worker("trace", *base, "--seed", str(a.seed),
                     "--budget", str(budget), "--spans", spans)
    metrics = dict(res["metrics"])
    metrics["cli.startup_s"] = statistics.median(startup)
    return metrics, res["verdicts"], {"replay_rounds": res["rounds"],
                                      "cli.startup": len(startup)}


def main(argv=None):
    ap = argparse.ArgumentParser(description="gbdp benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and the work
    # directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gbdp", "__init__.py")):
        print("error: run from the root of a gbdp checkout (no src/gbdp)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]

    work = os.path.join(root, ".perfbench", "run-%d" % os.getpid())
    os.makedirs(os.path.join(work, "inputs"), exist_ok=True)
    try:
        run = Runner(root, work)
        w = WORKLOADS[a.workload]
        base = ("--workload", a.workload, "--dir", os.path.join(work, "inputs"))
        setup = run.worker("setup", *base, "--seed", str(a.seed))
        if a.trace:
            metrics, verdicts, samples = measure_traced(run, w, a, base)
        else:
            metrics, verdicts, samples = measure(run, w, a, base)
            metrics["setup_s"] = statistics.median(setup["setup_s"])
            samples["setup"] = len(setup["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # An operation fails when it exits unexpectedly or its output
    # contradicts its oracle.  An output that misses only a strict check
    # (the known normalize defect) lowers ok_frac instead.
    failed = [v for v in verdicts if not v["ok"]]
    short = [v for v in verdicts if not (v["ok"] and v["strict_ok"])]
    if not a.trace:
        metrics["ok_frac"] = 1.0 - len(short) / len(verdicts)

    summary = {}
    for v in verdicts:
        s = summary.setdefault(v["kind"], {"ran": 0, "failed": 0,
                                           "strict_failed": 0})
        s["ran"] += 1
        s["failed"] += not v["ok"]
        s["strict_failed"] += v["ok"] and not v["strict_ok"]
    gaps = [v["row_gap"] for v in verdicts if "row_gap" in v]
    env = dict(setup["env"], workload=a.workload, seed=a.seed,
               trace=a.trace, seconds=a.seconds,
               driver_maxrss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print("env: " + json.dumps(env))
    print("samples: " + json.dumps(samples))
    print("checks: " + json.dumps(summary))
    print("normalize worst row gap: %.3e" % max(gaps))
    for v in short[:5]:
        print("%s %s: %s" % ("failed" if not v["ok"] else "strict check failed",
                             v["kind"], v["detail"]))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print("error: metrics not measured: %s" % missing, file=sys.stderr)
        return 2
    result = {
        "correct": not failed,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
