#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the nobl campaign runner.

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
  python3 perfbench/run.py --steady [--runs 10] [--sets 1] [--seconds T]
                           [--workload W ...] [--seed N]

--trace 0 runs workload W against the shipped `nobl` binary and prints
every end-to-end metric; --trace 1 runs the traced, in-process layer
decomposition and prints every per-layer metric. The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
is non-zero when any output check failed. --steady repeats --trace 0 runs
with consecutive seeds, prints each metric's median, quartiles and
(q3 - q1) / median, and fails when a spread exceeds the metric's bound or
a per-layer count differs between two traced runs. See perfbench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_ROOT = os.path.join(ROOT, ".bench_run")

# name -> (unit, better, bound). Bounds are the share of the parent's median
# a metric may worsen by; BENCHMARK.json carries the same table.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "success_ratio": ("ratio", "higher", 0.01),
}

# name -> (unit, better). "count" and "ratio" of counts repeat exactly.
PER_LAYER = {
    "bsp.simulate_exec_s": ("s", "lower"),
    "bsp.cost_exec_s": ("s", "lower"),
    "bsp.simulate_over_cost": ("x", "lower"),
    "bsp.degree_replay_s": ("s", "lower"),
    "algorithms.body_s": ("s", "lower"),
    "bsp.msgs_per_s": ("1/s", "higher"),
    "bsp.messages": ("count", "lower"),
    "bsp.supersteps": ("count", "lower"),
    "bsp.record_exec_s": ("s", "lower"),
    "bsp.schedule_events": ("count", "lower"),
    "bsp.ir_opt.optimize_s": ("s", "lower"),
    "bsp.ir_opt.replay_s": ("s", "lower"),
    "bsp.ir_opt.retained_event_ratio": ("ratio", "lower"),
    "bsp.ir_opt.irregular_step_ratio": ("ratio", "lower"),
    "core.analytic_symbolic_s": ("s", "lower"),
    "core.analytic_memo_s": ("s", "lower"),
    "core.analytic_fallback_s": ("s", "lower"),
    "core.certify_s": ("s", "lower"),
    "core.folding_check_s": ("s", "lower"),
    "cli.evaluate_s": ("s", "lower"),
    "cli.h_cells": ("count", "lower"),
    "cli.spec_parse_s": ("s", "lower"),
    "util.json_write_s": ("s", "lower"),
    "util.json_bytes": ("count", "lower"),
    "serve.framer_s": ("s", "lower"),
    "serve.cache_fill_s": ("s", "lower"),
    "serve.cache_memory_s": ("s", "lower"),
    "serve.cache_disk_s": ("s", "lower"),
    "bsp.trace_store.decode_s": ("s", "lower"),
    "bsp.trace_store.encode_s": ("s", "lower"),
    "bsp.trace_store.bytes": ("count", "lower"),
    "serve.tier_memory_ratio": ("ratio", "higher"),
    "serve.tier_disk_ratio": ("ratio", "lower"),
    "serve.server_ms_p50": ("ms", "lower"),
    "serve.socket_ms_p50": ("ms", "lower"),
    "dist.spawn_s.fork": ("s", "lower"),
    "dist.spawn_s.tcp": ("s", "lower"),
    "dist.rtt_us.fork": ("us", "lower"),
    "dist.rtt_us.tcp": ("us", "lower"),
    "dist.superstep_p50_ms.fork": ("ms", "lower"),
    "dist.superstep_p50_ms.tcp": ("ms", "lower"),
    "dist.unmeasured_ms": ("ms", "lower"),
    "dist.over_cost": ("x", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.e2e_pass_s": ("s", "lower"),
    "trace.overhead_ratio": ("x", "lower"),
}
COUNT_UNITS = ("count", "ratio")

# Workload cells. One mid size per kernel for the simulator path; the
# distributed cells are chosen by superstep count (fork: many short
# supersteps, tcp: few). The fork cells stay small: each fork superstep is
# a round trip between three processes, and under host CPU steal that path
# slowed 2-3x, so a fork-heavy pass (tried at 56-79 % of wall_s) made
# wall_s swing from 4.0 to 8.8 s between runs.
SIM_CELLS = [("matmul", [4096]), ("matmul-space", [1024]), ("fft", [16384]),
             ("sort", [1024]), ("bitonic", [4096]), ("stencil1", [256]),
             ("stencil2", [64]), ("scan", [16384]), ("transpose", [16384]),
             ("samplesort", [4096]), ("broadcast", [4096]),
             ("reduce", [16384]), ("gather", [65536]), ("shift", [65536])]
FORK_CELLS = [("sort", [64, 256]), ("stencil1", [64, 256]),
              ("fft", [64, 1024]), ("scan", [64, 1024]), ("stencil2", [16]),
              ("samplesort", [64])]
TCP_CELLS = [("fft", [64]), ("scan", [64]), ("broadcast", [64]),
             ("transpose", [1024])]

SETUPS = 5          # set-ups per CLI run; setup_s is their median
MIN_PASSES = 3      # timed passes per CLI run, even past --seconds
# Fixes which served cell holds which popularity rank, so every traced run
# serves the same mix.
SERVE_RANK_SEED = 10


class CheckFailed(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- processes

LIVE = []  # Popen objects still to be stopped on exit


def spawn(args, cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
          env=None):
    proc = subprocess.Popen(args, cwd=cwd, stdout=stdout, stderr=stderr,
                            env=env, start_new_session=True)
    LIVE.append(proc)
    return proc


def reap(proc, timeout):
    """Wait for proc; kill its process group when it overstays."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc)
    if proc in LIVE:
        LIVE.remove(proc)
    return proc.returncode


def stop_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def stop_all():
    for proc in list(LIVE):
        if proc.poll() is None:
            stop_group(proc)
        else:
            # The leader exited; make sure no worker of its group lingers.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        LIVE.remove(proc)


def timed_child(args, cwd, env, stdout_path):
    """Run args to completion: (wall seconds, max RSS MiB, exit code).

    wait4 reports the child's peak RSS including every descendant it
    waited for (the distributed backend's workers)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = spawn(args, cwd, stdout=out, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    LIVE.remove(proc)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


# -------------------------------------------------------------------- build

def build():
    """Build nobl and the benchmark's tools from the checkout's sources."""
    for need in ("CMakeLists.txt", os.path.join("src", "cli", "nobl_main.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise CheckFailed("not a nobl checkout: %s is missing" % need)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                        "perfbench")
    # The compiler's temporary files stay inside the build directory.
    os.makedirs(os.path.join(bdir, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)
    return {"nobl": os.path.join(bdir, "nobl", "nobl"),
            "client": os.path.join(bdir, "perfbench_client"),
            "layers": os.path.join(bdir, "perfbench_layers")}


# ------------------------------------------------------------------ inputs

def spec_text(name, cells, backends, rng, extra=()):
    cells = list(cells)
    rng.shuffle(cells)
    algos = ", ".join("%s:%s" % (k, ":".join(str(n) for n in sizes))
                      for k, sizes in cells)
    lines = ["name = " + name, "algorithms = " + algos,
             "backends = " + ", ".join(backends), "engines = seq"]
    return "\n".join(lines + list(extra)) + "\n"


def registry(tools, cwd):
    """`nobl list --json`: the readiness probe, and the smoke sizes."""
    out = subprocess.run([tools["nobl"], "list", "--json"], cwd=cwd,
                         check=True, stdout=subprocess.PIPE).stdout
    return json.loads(out)["algorithms"]


def serve_cells(algorithms):
    """Every kernel x its smoke sizes x {cost, analytic}, in popularity-rank
    order. The order is fixed, and so is the query stream (common.hpp), so
    the traced run's tier counts repeat exactly whatever the seed."""
    cells = ["%s %d %s" % (a["name"], n, backend)
             for a in algorithms for n in a["smoke_sizes"]
             for backend in ("cost", "analytic")]
    random.Random(SERVE_RANK_SEED).shuffle(cells)
    return "\n".join(cells) + "\n"


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.join(path, "tmp"))
    return path


def env_for(path):
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(path, "tmp")
    return env


# ------------------------------------------------------------ CLI workloads

def h_cells(run):
    return [(c["p"], c["sigma"], c["h"]) for c in run["cells"]]


class CliWorkload:
    """A workload whose pass is one or more `nobl` invocations."""

    def __init__(self, name, tools, rng, workdir):
        self.name = name
        self.tools = tools
        self.rng = rng
        self.workdir = workdir
        self.parts = []  # per invocation: its wall in every pass

    # Subclasses define invocations(rng) -> [(subcommand, spec text)],
    # make_reference() and check(outputs) -> None | raise CheckFailed.

    def setup(self, index):
        """Readiness probe, spec generation and one validated warm-up pass."""
        start = time.perf_counter()
        registry(self.tools, self.workdir)
        result = self.one_pass("setup%d" % index)
        return time.perf_counter() - start, result

    def one_pass(self, tag):
        """Run every invocation of one pass in fresh dirs and check outputs.
        Returns (wall, rss_mb, ok).

        Each pass draws a fresh cell order from the seeded generator: peak
        RSS and time can depend on the order, so a run covers many orders
        instead of pinning one seed's."""
        wall = 0.0
        rss = 0.0
        outputs = []
        for i, (command, text) in enumerate(self.invocations(self.rng)):
            d = fresh_dir(os.path.join(self.workdir, "%s-%d" % (tag, i)))
            spec = os.path.join(d, "w.spec")
            write(spec, text)
            doc = os.path.join(d, "out.json")
            w, r, rc = timed_child(
                [self.tools["nobl"], command, "--spec", spec, "--json", doc,
                 "--quiet"], d, env_for(d), os.path.join(d, "stdout.txt"))
            wall += w
            if i == len(self.parts):
                self.parts.append([])
            self.parts[i].append(w)
            rss = max(rss, r)
            outputs.append((rc, d, doc))
        ok = True
        try:
            for rc, d, _ in outputs:
                if rc != 0:
                    raise CheckFailed("nobl exited with %d in %s" % (rc, d))
            self.check(outputs)
        except (CheckFailed, OSError, ValueError, KeyError) as e:
            log("%s: output check failed: %s" % (self.name, e))
            ok = False
        for _, d, _ in outputs:
            shutil.rmtree(d, ignore_errors=True)
        return wall, rss, ok


def cell_count(cells):
    return sum(len(sizes) for _, sizes in cells)


class RunSimCost(CliWorkload):
    def invocations(self, rng):
        return [("run", spec_text("sim-cost", SIM_CELLS,
                                  ["simulate", "cost"], rng))]

    def make_reference(self):
        self.expected = {(k, n, b) for k, sizes in SIM_CELLS for n in sizes
                         for b in ("simulate", "cost")}

    def check(self, outputs):
        (_, d, doc), = outputs
        # validate_campaign_json: schema plus simulate/cost bit-identity.
        rc = subprocess.run([self.tools["nobl"], "check", "--results", doc],
                            cwd=d, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode
        if rc != 0:
            raise CheckFailed("nobl check --results rejected the document")
        with open(doc) as f:
            runs = json.load(f)["runs"]
        got = {(r["algorithm"], r["n"], r["backend"]) for r in runs}
        if got != self.expected or len(runs) != len(self.expected):
            raise CheckFailed("unexpected run set")


class DistForkTcp(CliWorkload):
    CELLS = cell_count(FORK_CELLS + TCP_CELLS)

    def invocations(self, rng):
        return [("run", spec_text("dist-fork", FORK_CELLS, ["distributed"],
                                  rng, ["transport = fork",
                                        "dist_workers = 2"])),
                ("run", spec_text("dist-tcp", TCP_CELLS, ["distributed"],
                                  rng, ["transport = tcp",
                                        "dist_workers = 2"]))]

    def make_reference(self):
        """H cells of the same cells under the cost backend."""
        d = fresh_dir(os.path.join(self.workdir, "reference"))
        write(os.path.join(d, "w.spec"),
              spec_text("dist-ref", FORK_CELLS + TCP_CELLS, ["cost"],
                        random.Random(0)))
        subprocess.run([self.tools["nobl"], "run", "--spec", "w.spec",
                        "--json", "out.json", "--quiet"], cwd=d,
                       env=env_for(d), stdout=subprocess.DEVNULL, check=True)
        with open(os.path.join(d, "out.json")) as f:
            runs = json.load(f)["runs"]
        shutil.rmtree(d, ignore_errors=True)
        self.ref = {(r["algorithm"], r["n"]): h_cells(r) for r in runs}

    def check(self, outputs):
        seen = 0
        for (_, _, doc), transport in zip(outputs, ("fork", "tcp")):
            with open(doc) as f:
                runs = json.load(f)["runs"]
            for r in runs:
                seen += 1
                m = r["measured"]
                if h_cells(r) != self.ref[(r["algorithm"], r["n"])]:
                    raise CheckFailed("%s:%d H differs from cost"
                                      % (r["algorithm"], r["n"]))
                if (m["transport"] != transport or m["workers"] != 2 or
                        len(m["superstep_ms"]) != r["supersteps"]):
                    raise CheckFailed("bad measured column")
        if seen != self.CELLS:
            raise CheckFailed("unexpected run count")


CLI_WORKLOADS = {"run-sim-cost": RunSimCost,
                 "dist-fork-tcp": DistForkTcp}


def run_cli(name, tools, seed, seconds, workdir):
    w = CLI_WORKLOADS[name](name, tools, random.Random(seed), workdir)
    w.make_reference()
    setups, walls, rss, attempted, failed = [], [], 0.0, 0, 0

    def count(result):
        nonlocal rss, attempted, failed
        _, r, ok = result
        rss = max(rss, r)
        attempted += 1
        failed += 0 if ok else 1

    def set_up():
        t, result = w.setup(len(setups))
        setups.append(t)
        count(result)

    # One set-up precedes the timed passes and the others follow them, so
    # the median set-up is not decided by a run's first seconds: on the
    # shared 4-vCPU VM this was tuned on, the CPU can run a third faster for
    # a while after an idle spell.
    set_up()
    start = time.perf_counter()
    # Start a pass only while it is expected to end within --seconds.
    while len(walls) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(walls) <= seconds):
        result = w.one_pass("pass%d" % len(walls))
        walls.append(result[0])
        count(result)
    while len(setups) < SETUPS:
        set_up()
    if len(w.parts) > 1:
        # Each invocation's share of a pass, for the README's split.
        medians = [statistics.median(p) for p in w.parts]
        log("invocation medians (s): %s; shares of their sum: %s" % (
            ", ".join("%.3f" % m for m in medians),
            ", ".join("%.2f" % (m / sum(medians)) for m in medians)))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss,
        "success_ratio": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed


# ------------------------------------------------------------- serve probe

def serve_probe(tools, cells_text, d):
    """A real `nobl serve` (2 workers, 16 memory entries, fresh cache) and
    one closed-loop client: prefill, warm-up, then the measured Zipf
    queries (the stream is fixed in common.hpp). Returns the client's
    report."""
    fresh_dir(d)
    write(os.path.join(d, "cells.txt"), cells_text)
    server = spawn([tools["nobl"], "serve", "--socket", "s.sock",
                    "--workers", "2", "--memory-entries", "16",
                    "--cache-dir", "cache"], d, env=env_for(d))
    client = spawn([tools["client"], "--socket", "s.sock", "--cells",
                    "cells.txt"], d, stdout=subprocess.PIPE, env=env_for(d))
    try:
        lines = [raw.decode().strip() for raw in client.stdout]
        rc = reap(client, 60)
        if not lines or not lines[-1].startswith("{"):
            raise CheckFailed("serve client failed (exit %s)" % rc)
        report = json.loads(lines[-1])
        subprocess.run([tools["nobl"], "serve", "--socket", "s.sock",
                        "--shutdown"], cwd=d, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=30)
        if reap(server, 30) != 0:
            raise CheckFailed("server exited with %s" % server.returncode)
    finally:
        for proc in (client, server):
            if proc in LIVE:
                stop_group(proc)
                LIVE.remove(proc)
        shutil.rmtree(d, ignore_errors=True)
    return report


# ----------------------------------------------------------------- traced

def run_traced(name, tools, seed, seconds, workdir):
    rng = random.Random(seed)
    algorithms = registry(tools, workdir)
    cells = serve_cells(algorithms)
    attempted = failed = 0

    # Served latencies and tiers come from a real server.
    probe = serve_probe(tools, cells, os.path.join(workdir, "probe"))
    attempted += probe["attempted"]
    failed += probe["failed"]
    # The same workload end to end, untraced: the pass the traced one is
    # compared with.
    w = CLI_WORKLOADS[name](name, tools, rng, workdir)
    w.make_reference()
    walls = []
    for i in range(MIN_PASSES):
        wall, _, ok = w.one_pass("e2e%d" % i)
        walls.append(wall)
        attempted += 1
        failed += 0 if ok else 1
    e2e_pass = statistics.median(walls)
    own = "dist.run" if name == "dist-fork-tcp" else "kernels"

    d = fresh_dir(os.path.join(workdir, "layers"))
    write(os.path.join(d, "cells.txt"), cells)
    args = [tools["layers"], "--cells", "cells.txt", "--dir", "scratch",
            "--seconds", str(seconds), "--own", own]
    kernel_specs = {
        "run-sim-cost": [SIM_CELLS],
        "dist-fork-tcp": [FORK_CELLS, TCP_CELLS],
    }[name]
    for i, spec_cells in enumerate(kernel_specs):
        write(os.path.join(d, "k%d.spec" % i),
              spec_text("kernels", spec_cells, ["cost"], rng))
        args += ["--spec", "k%d.spec" % i]
    for i, (cells_i, transport) in enumerate(((FORK_CELLS, "fork"),
                                               (TCP_CELLS, "tcp"))):
        write(os.path.join(d, "d%d.spec" % i),
              spec_text("dist-" + transport, cells_i, ["distributed"], rng,
                        ["transport = " + transport, "dist_workers = 2"]))
        args += ["--dist-spec", "d%d.spec" % i]
    proc = spawn(args, d, stdout=subprocess.PIPE, env=env_for(d))
    out, _ = proc.communicate(timeout=170)
    LIVE.remove(proc)
    shutil.rmtree(d, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise CheckFailed("traced run failed (exit %s)" % proc.returncode)
    layers = json.loads(lines[-1])
    attempted += layers["attempted"]
    failed += layers["failed"]

    metrics = dict(layers["metrics"])
    # The served done docs and the in-process cache must agree on tiers.
    for tier in ("memory", "disk"):
        served = probe[tier] / probe["queries"]
        attempted += 1
        if served != metrics["serve.tier_%s_ratio" % tier]:
            failed += 1
            log("tier %s: served %s, in-process %s" % (
                tier, served, metrics["serve.tier_%s_ratio" % tier]))
    metrics["serve.server_ms_p50"] = probe["server_ms_p50"]
    metrics["serve.socket_ms_p50"] = probe["socket_ms_p50"]
    metrics["trace.e2e_pass_s"] = e2e_pass
    metrics["trace.overhead_ratio"] = metrics["trace.pass_s"] / e2e_pass
    return metrics, attempted, failed


# ------------------------------------------------------------------ output

def result_line(metrics, table, attempted, failed):
    if set(metrics) != set(table):
        raise CheckFailed("metric set mismatch: %s" %
                          sorted(set(metrics) ^ set(table)))
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": table[k][0]}
                    for k in table},
    })


def run_once(args):
    tools = build()
    workdir = fresh_dir(os.path.join(RUN_ROOT, str(os.getpid())))
    try:
        if args.trace:
            metrics, attempted, failed = run_traced(
                args.workload, tools, args.seed, args.seconds, workdir)
            table = PER_LAYER
        else:
            metrics, attempted, failed = run_cli(
                args.workload, tools, args.seed, args.seconds, workdir)
            table = END_TO_END
    finally:
        stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass
    log("workload %s seed %d trace %d" % (args.workload, args.seed,
                                          args.trace))
    for k in table:
        log("  %-34s %14.6g %s" % (k, metrics[k], table[k][0]))
    print(result_line(metrics, table, attempted, failed), flush=True)
    return 0 if failed == 0 else 1


# -------------------------------------------------------------- steadiness

WORKLOADS = ["run-sim-cost",
             "dist-fork-tcp"]


def invoke(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE).stdout
    doc = json.loads(out.decode().strip().splitlines()[-1])
    return doc


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def manifest_matches():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"])
           for m in bench["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    return (e2e == END_TO_END and layer == PER_LAYER and
            [w["name"] for w in bench["workloads"]] == WORKLOADS)


def steady(args):
    ok = manifest_matches()
    if not ok:
        print("BENCHMARK.json and run.py disagree on metrics or workloads")
    sets = []
    for s in range(args.sets):
        per = {}
        for workload in args.workload or WORKLOADS:
            docs = [invoke(workload, args.seed + s * args.runs + i,
                           args.seconds, 0) for i in range(args.runs)]
            ok = ok and all(d["correct"] for d in docs)
            per[workload] = {k: [d["metrics"][k]["value"] for d in docs]
                             for k in END_TO_END}
        sets.append(per)
        print("set %d (%d runs per workload, seeds from %d)" %
              (s + 1, args.runs, args.seed + s * args.runs))
        print("  %-18s %-15s %12s %12s %12s %8s %6s" % (
            "workload", "metric", "median", "q1", "q3", "spread", "bound"))
        for workload, metrics in per.items():
            for k, values in metrics.items():
                med, q1, q3, sp = spread(values)
                bound = END_TO_END[k][2]
                verdict = "ok" if sp <= bound else "WIDE"
                ok = ok and verdict == "ok"
                print("  %-18s %-15s %12.6g %12.6g %12.6g %8.4f %6.2f %s" % (
                    workload, k, med, q1, q3, sp, bound, verdict))
    for s in range(1, len(sets)):
        print("set %d against set 1: median change (worse > 0)" % (s + 1))
        for workload, metrics in sets[s].items():
            for k, values in metrics.items():
                unit, better, bound = END_TO_END[k]
                base = statistics.median(sets[0][workload][k])
                now = statistics.median(values)
                change = (now - base) / base if base else 0.0
                worse = change if better == "lower" else -change
                verdict = "ok" if worse <= bound else "DRIFT"
                ok = ok and verdict == "ok"
                print("  %-18s %-15s %+8.4f bound %.2f %s" % (
                    workload, k, worse, bound, verdict))
    # Per-layer counts must repeat exactly across two traced runs.
    for workload in args.workload or WORKLOADS:
        a, b = (invoke(workload, args.seed + i, args.seconds, 1)
                for i in range(2))
        repeat = a["correct"] and b["correct"]
        for k, (unit, _) in PER_LAYER.items():
            if unit in COUNT_UNITS:
                va, vb = a["metrics"][k]["value"], b["metrics"][k]["value"]
                if va != vb:
                    repeat = False
                    print("  %s %s differs: %s vs %s" % (workload, k, va, vb))
        ok = ok and repeat
        print("traced %s (seeds %d, %d): correct %s/%s, counts %s" % (
            workload, args.seed, args.seed + 1, a["correct"], b["correct"],
            "repeat" if repeat else "DIFFER"))
    print("steadiness: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.steady:
        return steady(args)
    if not args.workload or len(args.workload) != 1:
        p.error("exactly one --workload is required")
    args.workload = args.workload[0]
    try:
        return run_once(args)
    except (CheckFailed, subprocess.CalledProcessError, OSError) as e:
        log("error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
