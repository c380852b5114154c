"""Benchmark of the qderiv CLI, run from outside the program.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0   # every workload

Each sample runs the workload's commands one after another, each as a fresh
``python -m qderiv.cli`` process (closed loop, one client), because every CLI
user pays for cold ``lru_cache``s.  Samples repeat until ``--seconds`` have
passed.  ``--trace 1`` alternates untraced samples with samples run under
``perfbench/tracer.py`` and reports the per-layer metrics.

Every command's stdout is checked against the sha256 digests in
``perfbench/reference.json``; ``--record`` writes the digests of the
current code for the chosen sizes.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/METRICS.md for what each metric measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("verify-all", "tables-n14", "series-o40")
TABLE_FAMILIES = ("A", "B", "Ac")
SERIES = ("tan_q", "sec_q")
SETUP_REPEATS = 9
# a run ends well inside the 180 s a run may take, whatever --seconds says
RUN_BUDGET_S = 170.0


@dataclass
class Sizes:
    n: int = 14
    order: int = 40
    verify: tuple = ()  # extra `verify all` arguments; () is the default Bounds


SMOKE = Sizes(4, 6, ("--n", "4", "--order", "6", "--bound-bruteforce", "4"))


@dataclass
class Command:
    args: tuple
    key: str  # the args with per-sample paths elided; indexes reference.json
    phase: str = "run"  # "miss" or "hit" for table commands


@dataclass
class Result:
    command: Command
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    sha256: str
    lines: list = field(default_factory=list)
    trace: dict = None


# -- workloads ------------------------------------------------------------


def commands(workload: str, sizes: Sizes, rng: random.Random, cache_dir: str) -> list:
    """The commands of one sample; the seed only orders them."""
    if workload == "verify-all":
        args = ("verify", "all", "--format", "json") + tuple(sizes.verify)
        return [Command(args, " ".join(args))]
    if workload == "tables-n14":
        out = []
        for family in rng.sample(TABLE_FAMILIES, len(TABLE_FAMILIES)):
            args = ("table", family, "--n", str(sizes.n), "--format", "json")
            for phase in ("miss", "hit"):
                out.append(Command(args + ("--cache-dir", cache_dir), " ".join(args), phase))
        return out
    if workload == "series-o40":
        out = []
        for name in rng.sample(SERIES, len(SERIES)):
            args = ("series", name, "--order", str(sizes.order), "--format", "json")
            out.append(Command(args, " ".join(args)))
        return out
    raise ValueError("unknown workload %r" % (workload,))


# -- running children -------------------------------------------------------


def child_env() -> dict:
    """A hermetic environment: the checkout's src/, no stray cache dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("QDERIV_CACHE_DIR", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONIOENCODING="utf-8")
    return env


def spawn(argv: list, stdout_path: Path, deadline: float) -> tuple:
    """Run argv to completion; return (wall_s, cpu_s, rss_mb, exit_code).

    The child is killed if it is still running at ``deadline``.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=str(ROOT))
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def run_command(cmd: Command, traced: bool, deadline: float) -> Result:
    out_path = WORK / "stdout.txt"
    trace_path = WORK / "trace.json"
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path)] + list(cmd.args)
    else:
        argv = [sys.executable, "-m", "qderiv.cli"] + list(cmd.args)
    wall, cpu, rss, code = spawn(argv, out_path, deadline)
    digest = hashlib.sha256()
    lines = []
    with open(out_path, "rb") as handle:
        for line in handle:
            digest.update(line)
            if cmd.args[0] == "verify":
                lines.append(line)
    trace = None
    if traced and trace_path.exists():
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        trace_path.unlink()
    return Result(cmd, wall, cpu, rss, code, digest.hexdigest(), lines, trace)


# -- correctness gate ---------------------------------------------------------


def line_failed(line: bytes) -> bool:
    try:
        return json.loads(line).get("status") != "pass"
    except (ValueError, AttributeError):
        return True


def judge(result: Result, reference: dict) -> tuple:
    """(attempted, failed) operations for one command.

    A verify report line is one operation and fails unless its status is
    "pass", and a line missing against the reference count fails too.  Any
    other command is one operation.  A non-zero exit code, a digest that
    differs from the reference, or no reference at all fails at least one
    operation of the command.
    """
    ref = reference.get(result.command.key)
    if result.command.args[0] == "verify":
        bad_lines = sum(line_failed(line) for line in result.lines)
        expected = ref["lines"] if ref else len(result.lines)
        attempted = max(1, expected, len(result.lines))
        failed = bad_lines + max(0, expected - len(result.lines))
    else:
        attempted, failed = 1, 0
    if result.exit_code != 0 or ref is None or ref["sha256"] != result.sha256:
        failed = max(failed, 1)
    return attempted, min(failed, attempted)


# -- samples and metrics ------------------------------------------------------


def run_sample(workload, sizes, rng, index, traced, deadline) -> list:
    cache_dir = WORK / ("cache-%d" % index)
    shutil.rmtree(cache_dir, ignore_errors=True)
    results = [run_command(c, traced, deadline)
               for c in commands(workload, sizes, rng, str(cache_dir))]
    shutil.rmtree(cache_dir, ignore_errors=True)
    return results


def sample_totals(results: list) -> dict:
    totals = {
        "wall_s": sum(r.wall_s for r in results),
        "cpu_s": sum(r.cpu_s for r in results),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }
    for phase in ("miss", "hit"):
        walls = [r.wall_s for r in results if r.command.phase == phase]
        if walls:
            totals[phase + "_s"] = sum(walls)
    return totals


def measure_setup(deadline: float) -> list:
    """Wall times of fresh interpreters importing qderiv.cli (after one warm-up)."""
    argv = [sys.executable, "-c", "import qderiv.cli"]
    out = WORK / "setup.txt"
    times = []
    for i in range(SETUP_REPEATS + 1):
        wall, _, _, code = spawn(argv, out, deadline)
        if code != 0:
            raise RuntimeError("import qderiv.cli failed: %s" % out.with_suffix(".err").read_text())
        if i:
            times.append(wall)
    return times


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def layer_metrics(traces: list, walls: list) -> dict:
    """Per-layer values of one traced sample (sums over its commands)."""
    m = {}
    spans, counters, lru = {}, {}, {}
    unattributed = 0.0
    for trace, wall in zip(traces, walls):
        for name, s in trace["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += s["calls"]
            acc["self_s"] += s["self_s"]
        for name, v in trace["counters"].items():
            counters[name] = counters.get(name, 0) + v
        for name, info in trace["lru"].items():
            acc = lru.setdefault(name, {"hits": 0, "misses": 0, "size": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            acc["size"] = max(acc["size"], info["size"])
        unattributed += wall - sum(s["self_s"] for s in trace["spans"].values())
    for name, s in spans.items():
        m[name + ".calls"] = s["calls"]
        m[name + ".s"] = s["self_s"]
    m.update(counters)

    def lru_sum(prefixes, key):
        return sum(v[key] for k, v in lru.items() if k.startswith(prefixes))

    recurrence = tuple("qderiv.tables.%s" % f for f in ("a_table", "b_table", "ac_table"))
    m["series.cache.hits"] = lru_sum("qderiv.series.", "hits")
    m["series.cache.misses"] = lru_sum("qderiv.series.", "misses")
    m["tables.oracle_all.misses"] = lru_sum("qderiv.tables.oracle_all", "misses")
    m["tables.recurrence.misses"] = lru_sum(recurrence, "misses")
    layers = {}
    for name, s in spans.items():
        layer = "verify.check" if name.startswith("verify.check.") else name
        layers[layer] = layers.get(layer, 0.0) + s["self_s"]
    layers["(outside spans)"] = unattributed
    return {"metrics": m, "lru": lru, "layers": layers}


def run_workload(workload, seed, seconds, trace, sizes, reference, deadline) -> dict:
    rng = random.Random(seed)
    setup = [] if trace else measure_setup(deadline)
    plain, traced, all_results = [], [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for is_traced in ((False, True) if trace else (False,)):
            results = run_sample(workload, sizes, rng, len(all_results), is_traced, deadline)
            all_results.append(results)
            (traced if is_traced else plain).append(results)
        now = time.monotonic()
        if now - start >= seconds or now + (now - t0) > deadline:
            break
    attempted = failed = 0
    for results in all_results:
        for r in results:
            a, f = judge(r, reference)
            attempted += a
            failed += f
            if f:
                print("FAIL %s (%s, exit %d, sha256 %s)" % (r.command.key, r.command.phase,
                                                             r.exit_code, r.sha256), file=sys.stderr)
    totals = [sample_totals(s) for s in plain]
    out = {"workload": workload, "seed": seed, "attempted": attempted, "failed": failed,
           "samples": len(plain), "end_to_end": {}, "per_layer": {}}
    series = {name: [t[name] for t in totals] for name in totals[0]}
    if setup:
        series["setup_s"] = setup
    for name, values in series.items():
        out["end_to_end"][name] = {"median": statistics.median(values), "n": len(values),
                                   "quartiles": quartiles(values)}
    out["end_to_end"]["fail_ratio"] = {"value": failed / attempted, "n": attempted}
    if trace:
        # a traced command killed at the deadline leaves no trace; it is
        # already counted as failed, and its sample gives no layer values
        per_sample = [layer_metrics([r.trace for r in s], [r.wall_s for r in s])
                      for s in traced if all(r.trace is not None for r in s)]
        if not per_sample:
            raise RuntimeError("no traced sample completed")
        names = set().union(*(p["metrics"] for p in per_sample))
        layer = {n: statistics.median_low(p["metrics"].get(n, 0) for p in per_sample) for n in names}
        traced_wall = statistics.median(sum(r.wall_s for r in s) for s in traced)
        layer["trace.overhead_ratio"] = traced_wall / out["end_to_end"]["wall_s"]["median"]
        out["per_layer"] = layer
        out["lru"] = per_sample[-1]["lru"]
        layers = {k: statistics.median_low(p["layers"][k] for p in per_sample)
                  for k in per_sample[0]["layers"]}
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        out["top_layers"] = [{"layer": k, "self_s": v} for k, v in ranked[:5]]
        out["traced_samples"] = len(traced)
    return out


# -- reporting ----------------------------------------------------------------


def machine_info() -> dict:
    def git(*args):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(["git", *args], cwd=str(ROOT), capture_output=True,
                                  text=True, timeout=30, env=env)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain", "--", "src")
    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "src_dirty": None if status is None else bool(status),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def print_report(res: dict) -> None:
    e2e = res["end_to_end"]
    print("# %s seed=%d samples=%d attempted=%d failed=%d"
          % (res["workload"], res["seed"], res["samples"], res["attempted"], res["failed"]))
    for name, v in e2e.items():
        if name == "fail_ratio":
            print("  %-14s %.6g (%d/%d operations)" % (name, v["value"], res["failed"], res["attempted"]))
            continue
        q = v["quartiles"]
        print("  %-14s %.6g %s  (median of %d; quartiles %.6g..%.6g)"
              % (name, v["median"], "MB" if name.endswith("_mb") else "s", v["n"], q[0], q[2]))
    if res["per_layer"]:
        print("  top layers by self time (median over traced samples):")
        for item in res["top_layers"]:
            print("    %-34s %.4f s" % (item["layer"], item["self_s"]))
        print("  trace.overhead_ratio %.4g" % res["per_layer"]["trace.overhead_ratio"])
        for name, info in sorted(res["lru"].items()):
            if info["hits"] or info["misses"]:
                print("  lru %-44s hits=%d misses=%d size=%d" % (name, info["hits"], info["misses"], info["size"]))


def load_json(path: Path, default=None):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        if default is None:
            raise
        return default


def record_reference(workloads, sizes, reference, deadline) -> int:
    """Store the digests of one sample of each workload, if all commands pass."""
    for workload in workloads:
        for r in run_sample(workload, sizes, random.Random(0), 0, False, deadline):
            if r.exit_code != 0 or any(line_failed(line) for line in r.lines):
                print("not recorded: %s exited %d" % (r.command.key, r.exit_code), file=sys.stderr)
                return 1
            entry = {"sha256": r.sha256}
            if r.lines:
                entry["lines"] = len(r.lines)
            old = reference.setdefault(r.command.key, entry)
            if old != entry:
                print("not recorded: %s differs from its reference" % r.command.key, file=sys.stderr)
                return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int, default=Sizes.n, help="table size for tables-n14")
    p.add_argument("--order", type=int, default=Sizes.order, help="series order for series-o40")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes (n=%d, order=%d, small verify bounds)" % (SMOKE.n, SMOKE.order))
    p.add_argument("--record", action="store_true",
                   help="add the current code's stdout digests to reference.json and exit")
    p.add_argument("--out", type=Path, help="append the full result of this run to a JSON file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "qderiv" / "cli.py").is_file():
        print("error: %s not found; run from a full checkout" % (SRC / "qderiv" / "cli.py"), file=sys.stderr)
        return 2
    spec = load_json(SPEC)
    sizes = SMOKE if args.smoke else Sizes(args.n, args.order)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    reference = load_json(REFERENCE, {})
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        if args.record:
            return record_reference(workloads, sizes, reference, deadline)
        section = "per_layer" if args.trace else "end_to_end"
        wanted = [(m["name"], m["unit"]) for m in spec[section]]
        machine = machine_info()
        print("# machine " + json.dumps(machine, sort_keys=True))
        results = []
        for workload in workloads:
            if args.workload == "all":
                deadline = time.monotonic() + RUN_BUDGET_S
            res = run_workload(workload, args.seed, args.seconds, args.trace, sizes, reference, deadline)
            print_report(res)
            results.append(res)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    def value(res, name):
        if args.trace:
            return res["per_layer"].get(name, 0)
        return res["end_to_end"][name]["median"]

    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "/"
        for name, unit in wanted:
            metrics[prefix + name] = {"value": value(res, name), "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.out:
        record = load_json(args.out, {"runs": []})
        record["runs"].extend(dict(r, trace=args.trace, machine=machine) for r in results)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
