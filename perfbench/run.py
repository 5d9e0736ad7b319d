#!/usr/bin/env python3
"""End-to-end benchmark of the AMS reproduction.

    python3 perfbench/run.py --workload train_fold --seed 1 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the repository's libraries, tools/net_server_main
and perfbench/workloads.cc) in Release into .bench_build/. Each workload step
then runs in a fresh process:

  train_fold      quickstart protocol on the txn panel's last CV fold: AMS
                  (paper defaults, a fixed 170 epochs), Ridge and GBDT, then
                  predict and evaluate
  serve_inproc    open loop at 100 req/s of InferenceServer::Score calls on
                  a paper-shape model (71 companies x 48 features): every
                  request meets an idle server

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run (AMS_TRACE_FILE set) plus obs.trace_overhead_frac.
train_fold's traced run also runs one Table I experiment on the map panel
(hpo_trials=1, all 13 models on the default par pool) for the par, HPO and
nn layers; serve_inproc's traced run also drives tools/net_server_main over
a ladder of open-loop rates for the network serving layers. Rates, limits
and set-up counts are constants of workloads.cc, which reports them.
Every AMS_* variable of the caller is dropped; the resolved knobs and host
facts are printed first. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
import argparse
import json
import math
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS_BIN = os.path.join(BUILD_DIR, "perfbench_workloads")
SERVER = os.path.join(BUILD_DIR, "net_server_main")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

# Protocols whose outputs reference.json pins. Only train_fold is a
# measured workload: the Table I experiment's wall time spread by 28% across
# seeds on a shared 4-vCPU host, so it runs in train_fold's traced run only.
TRAINING = ("train_fold", "experiment_map")
WORKLOADS = ("train_fold", "serve_inproc")
# Seconds each part of a traced run measures at most, so a traced run, which
# repeats the untraced measurement first, ends within three minutes.
TRACED_SECONDS = 30

# name -> unit. The order is the order of the printed table.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "slo_ok_frac": "frac",
    "goodput_rps": "1/s",
}
PER_LAYER = {
    "data.generate_ms": "ms",
    "data.features_ms": "ms",
    "graph.build_ms": "ms",
    "ams.fit_s": "s",
    "ams.epochs": "count",
    "ams.epoch_ms": "ms",
    "ams.predict_1q_ms": "ms",
    "ams.predict_8q_ms": "ms",
    "tensor.forward_ms": "ms",
    "tensor.backward_ms": "ms",
    "optim.step_ms": "ms",
    "tensor.eval_forward_ms": "ms",
    "la.matmul_us": "us",
    "la.allocs_per_epoch": "count",
    "linear.fit_ms": "ms",
    "gbdt.fit_ms": "ms",
    "gbdt.splits": "count",
    "models.hpo_trial_ms_p50": "ms",
    "models.hpo_trial_ms_max": "ms",
    "nn.epoch_ms": "ms",
    "par.utilization": "frac",
    "serve.queue_ms_p50": "ms",
    "serve.queue_ms_p99": "ms",
    "serve.batch_form_ms": "ms",
    "serve.compute_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.shed": "count",
    "serve.deadline": "count",
    "serve.inproc_score_ms": "ms",
    "serve.frame_encode_us": "us",
    "serve.frame_decode_us": "us",
    "serve.net_overhead_ms": "ms",
    "serve.max_rps_at_slo": "1/s",
    "driver.late_ms_p99": "ms",
    "obs.trace_overhead_frac": "frac",
}


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def pinned_env(extra=None):
    """The caller's environment without any AMS_* knob, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("AMS_")}
    env.update(extra or {})
    return env


# --------------------------------------------------------------------------
# Build.

def check_build_cache(text):
    """Raises BenchError unless a CMakeCache.txt describes a plain Release
    build: no other build type, no sanitizer flags."""
    entries = {}
    for line in text.splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            entries[key.split(":", 1)[0]] = value
    build_type = entries.get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        raise BenchError("refusing to measure a %r build (need Release)"
                         % build_type)
    for key in ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE",
                "CMAKE_EXE_LINKER_FLAGS"):
        if "-fsanitize" in entries.get(key, ""):
            raise BenchError("refusing to measure a sanitizer build (%s)" % key)


def build():
    for needed in ("src/CMakeLists.txt", "tools/net_server_main.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError("missing %s: run from a full checkout" % needed)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
         "perfbench_workloads", "net_server_main"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=pinned_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=840)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError("build failed: %s" % " ".join(cmd))
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
        check_build_cache(cache.read())


# --------------------------------------------------------------------------
# Workload processes.

def run_bench(args, env=None, timeout=170):
    done = subprocess.run([WORKLOADS_BIN] + args, cwd=ROOT, env=env or pinned_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise BenchError("perfbench_workloads %s exited %d" % (args[0], done.returncode))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench_workloads %s printed nothing" % args[0])
    return json.loads(lines[-1])


class Server:
    """tools/net_server_main serving one artifact, with its admin plane."""

    def __init__(self, workdir, trace_file=None):
        extra = {"AMS_ADMIN_PORT": "0"}
        if trace_file:
            extra["AMS_TRACE_FILE"] = trace_file
        self.log = open(os.path.join(workdir, "server.log"), "w")
        self.proc = subprocess.Popen(
            [SERVER, "--artifact=" + os.path.join(workdir, "model.ams"),
             "--port=0"],
            cwd=ROOT, env=pinned_env(extra), stdout=subprocess.PIPE,
            stderr=self.log)
        # Readiness lines: "AMSNET listening port=N ..." then
        # "AMSADMIN port=M". Read the raw pipe so no line hides in a buffer.
        self.port = self.admin_port = 0
        fd = self.proc.stdout.fileno()
        selector = selectors.DefaultSelector()
        selector.register(fd, selectors.EVENT_READ)
        deadline = time.monotonic() + 60
        text = ""
        while not (self.port and self.admin_port):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                selector.close()
                self.stop()
                raise BenchError("net_server_main did not become ready")
            if selector.select(timeout=0.5):
                text += os.read(fd, 4096).decode(errors="replace")
            for line in text.splitlines():
                for word in line.split():
                    if word.startswith("port=") and line.startswith("AMSNET"):
                        self.port = int(word[5:])
                    if word.startswith("port=") and line.startswith("AMSADMIN"):
                        self.admin_port = int(word[5:])
        selector.close()

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# --------------------------------------------------------------------------
# Correctness.

def load_reference(path=REFERENCE):
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def check_training(workload, seed, out, reference):
    """Failed operations of one training run.

    An operation is one model fitted and evaluated in one repetition. Every
    repetition must reproduce the first bit for bit (prediction hash). When
    the reference table has this seed, each model's BA and SR and the
    prediction hash must equal it exactly; otherwise BA and SR must be
    finite and in range. Returns (attempted, failed, notes)."""
    hashes = out["hashes"]
    models = out["models"]
    reps, ops = len(hashes), out["operations_per_rep"]
    ref = reference.get(workload, {}).get(str(seed))
    notes = []
    failed_models = set()
    for name, m in models.items():
        ba, sr = m.get("ba"), m.get("sr")
        ok = (isinstance(ba, (int, float)) and 0.0 <= ba <= 100.0
              and isinstance(sr, (int, float)) and math.isfinite(sr)
              and sr >= 0.0)
        if ref is not None:
            want = ref["models"].get(name)
            ok = ok and want is not None and want["ba"] == ba \
                and want["sr"] == sr
        if not ok:
            failed_models.add(name)
            notes.append("%s: BA/SR %r/%r differ from reference" %
                         (name, ba, sr))
    if ref is not None:
        missing = set(ref["models"]) - set(models)
        failed_models |= missing
        notes += ["%s: missing" % name for name in sorted(missing)]
    want_hash = ref["hash"] if ref is not None else hashes[0]
    failed = 0
    for h in hashes:
        if h != want_hash:
            failed += ops
            notes.append("prediction hash %s != %s" % (h, want_hash))
        else:
            failed += len(failed_models)
    notes.append("reference: %s" % ("table" if ref is not None else
                                     "repetitions only (seed not in table)"))
    return reps * ops, min(failed, reps * ops), notes


# --------------------------------------------------------------------------
# Workloads.

def training_run(workload, seed, seconds, trace_file=None, min_reps=2):
    args = [workload, "--seed=%d" % seed, "--seconds=%g" % seconds,
            "--min_reps=%d" % min_reps,
            "--trace=%d" % (1 if trace_file else 0)]
    extra = {"AMS_TRACE_FILE": trace_file} if trace_file else {}
    return run_bench(args, env=pinned_env(extra))


def training_metrics(out):
    return {
        # Mean over the points of the run of each point's median set-up.
        "setup_s": statistics.mean(out["setup_s"]),
        "wall_s": statistics.median(out["wall_s"]),
        "peak_rss_mb": out["peak_rss_mb"],
        # Latency of one AMS epoch. Epoch times are bimodal on a shared host
        # (fast and slow spells of about a second), so the middle figure is
        # the median over repetitions of each repetition's mean epoch;
        # p99_ms is over every epoch of every repetition: the highest
        # percentile, at most the 99th, that leaves ten epochs above it.
        "p50_ms": statistics.median(out["epoch_mean_ms"]),
        "p99_ms": out["epoch_ms_tail"],
    }


def epoch_note(out):
    return ("p50_ms: median of %d repetitions' mean epoch; p99_ms: p%.2f of "
            "%d epochs" % (len(out["epoch_mean_ms"]),
                           100.0 * out["epoch_tail_q"], out["epoch_samples"]))


def network_run(seed, seconds, workdir, trace_file):
    """Drives net_server_main over workloads.cc's ladder of rates (seconds
    split evenly). Returns the load generator's output, which holds the
    server's /metrics.json scraped before the ladder and after every rate."""
    run_bench(["prepare_serve", "--seed=%d" % seed, "--dir=" + workdir])
    server = Server(workdir, trace_file)
    try:
        return run_bench(
            ["serve", "--dir=" + workdir, "--port=%d" % server.port,
             "--admin_port=%d" % server.admin_port,
             "--seconds=%g" % seconds])
    finally:
        server.stop()


def meets_limit(step, limit_ms):
    sent = step["sent"]
    return (sent > 0 and (sent - step["ok_in_limit"]) <= 0.01 * sent
            and step["p99_ms"] <= limit_ms and not step["backlog"])


def inproc_run(seed, seconds, trace_file=None):
    args = ["serve_inproc", "--seed=%d" % seed, "--seconds=%g" % seconds,
            "--trace=%d" % (1 if trace_file else 0)]
    extra = {"AMS_TRACE_FILE": trace_file} if trace_file else {}
    return run_bench(args, env=pinned_env(extra))


def inproc_metrics(out):
    return {
        "setup_s": statistics.mean(out["setup_s"]),
        "wall_s": out["wall_s"],
        "peak_rss_mb": out["peak_rss_mb"],
        # Latency of the OK requests, from each request's scheduled time.
        "p50_ms": out["p50_ms"],
        "p99_ms": out["p99_ms"],
        "slo_ok_frac": out["ok_in_limit"] / out["sent"],
        "goodput_rps": out["ok_in_limit"] / out["wall_s"],
    }


def inproc_check(out):
    notes = []
    if out["wrong"]:
        notes.append("%d scores differ from direct Predict" % out["wrong"])
    if out["error"]:
        notes.append("%d Score calls failed" % out["error"])
    return out["sent"], out["error"] + out["wrong"], notes


def serving_check(out):
    steps = out["steps"]
    attempted = sum(s["sent"] for s in steps)
    failed = sum(s["error"] + s["transport"] + s["wrong"] for s in steps)
    notes = []
    for s in steps:
        if s["wrong"]:
            notes.append("%d responses at %g/s differ from direct Predict" %
                         (s["wrong"], s["rate"]))
        if s["error"] or s["transport"]:
            notes.append("%d errors, %d transport failures at %g/s" %
                         (s["error"], s["transport"], s["rate"]))
        if s["fell_behind"]:
            notes.append("generator fell behind at %g/s (late p99 %.3f ms)" %
                         (s["rate"], s["late_ms_p99"]))
    return attempted, failed, notes


# --------------------------------------------------------------------------
# Server histograms. /metrics.json reports each histogram since the server
# started; the figures of one ladder step come from the bucket counts of the
# scrapes that enclose it.

def exponential_bounds(base=0.01, growth=2.0, count=20):
    """obs::Histogram::ExponentialBounds."""
    bounds, edge = [], base
    for _ in range(count):
        bounds.append(edge)
        edge *= growth
    return bounds


# The bounds src/serve registers for its millisecond timings.
MS_BOUNDS = exponential_bounds()


def bucket_counts(report, name, bounds):
    """Per-bucket counts (overflow last) of one histogram of a scrape, whose
    sparse bucket list names each non-empty bucket by its upper bound."""
    counts = [0] * (len(bounds) + 1)
    index = {bound: i for i, bound in enumerate(bounds)}
    for bucket in report["histograms"].get(name, {}).get("buckets", []):
        le = bucket["le"]
        if le is not None and le not in index:
            raise BenchError("%s: unexpected bucket bound %r" % (name, le))
        counts[len(bounds) if le is None else index[le]] += bucket["count"]
    return counts


def step_counts(before, after, name, bounds):
    return [b - a for a, b in zip(bucket_counts(before, name, bounds),
                                  bucket_counts(after, name, bounds))]


def bucket_percentile(counts, bounds, q):
    """MetricsSnapshot::HistogramValue::Percentile: linear within the
    bucket that holds rank q * count."""
    total = sum(counts)
    if total <= 0:
        return 0.0
    rank = max(q * total, 1e-12)
    cumulative = 0
    for i, in_bucket in enumerate(counts):
        if in_bucket <= 0:
            continue
        if cumulative + in_bucket >= rank:
            if i >= len(bounds):
                return bounds[-1]
            lower = min(0.0, bounds[0]) if i == 0 else bounds[i - 1]
            fraction = min(1.0, max(0.0, (rank - cumulative) / in_bucket))
            return lower + (bounds[i] - lower) * fraction
        cumulative += in_bucket
    return bounds[-1]


def histogram_sum(before, after, name):
    def total(report, key):
        return report["histograms"].get(name, {}).get(key, 0)
    return (total(after, "sum") - total(before, "sum"),
            total(after, "count") - total(before, "count"))


def counter(report, name):
    return report["counters"].get(name, 0)


def server_step(before, after):
    """The server's figures over the interval between two scrapes.
    Percentiles are interpolated within factor-2 buckets, so where the
    figure is a difference or a phase time, the exact mean is used."""
    def p(name, q):
        return bucket_percentile(step_counts(before, after, name, MS_BOUNDS),
                                 MS_BOUNDS, q)

    def mean(name):
        total, count = histogram_sum(before, after, name)
        return total / count if count else 0.0

    return {
        "queue_ms_p50": p("serve/queue_ms", 0.50),
        "queue_ms_p99": p("serve/queue_ms", 0.99),
        "batch_form_ms": mean("serve/batch_form_ms"),
        "compute_ms": mean("serve/compute_ms"),
        "net_latency_ms": mean("serve/net_latency_ms"),
        "batch_size_mean": mean("serve/batch_size"),
        "shed": counter(after, 'serve/requests{outcome="shed"}') -
                counter(before, 'serve/requests{outcome="shed"}'),
        "deadline": counter(after, 'serve/requests{outcome="deadline"}') -
                    counter(before, 'serve/requests{outcome="deadline"}'),
    }


def network_layers(out):
    """Per-layer metrics of the ladder. The latency phases (queue p50 and
    p99, mean batch-form and compute time, and the network overhead: mean
    client latency minus mean server serve/net_latency_ms) are those of the
    lowest rate, where requests find an idle server; batch size, shed and
    deadline counts cover the whole ladder. Prints one line per rate."""
    steps = out["steps"]
    scrapes = [out.get("metrics_before")] + [s.get("metrics") for s in steps]
    if any(scrape is None for scrape in scrapes):
        raise BenchError("a /metrics.json scrape of the server is missing")
    limit_ms = out["limit_ms"]
    print("ladder %8s %6s %6s %8s %8s %8s %8s %6s %6s %6s %s" %
          ("rate/s", "sent", "ok_lim", "p50_ms", "p99_ms", "queue50",
           "queue99", "batch", "shed", "dline", "meets_limit"))
    for s, before, after in zip(steps, scrapes, scrapes[1:]):
        server = server_step(before, after)
        print("ladder %8g %6d %6d %8.3f %8.3f %8.3f %8.3f %6.2f %6d %6d %s" %
              (s["rate"], s["sent"], s["ok_in_limit"], s["p50_ms"],
               s["p99_ms"], server["queue_ms_p50"], server["queue_ms_p99"],
               server["batch_size_mean"], server["shed"], server["deadline"],
               "yes" if meets_limit(s, limit_ms) else "no"))
    low = min(range(len(steps)), key=lambda i: steps[i]["rate"])
    idle = server_step(scrapes[low], scrapes[low + 1])
    ladder = server_step(scrapes[0], scrapes[-1])
    passing = [s["rate"] for s in steps if meets_limit(s, limit_ms)]
    return {
        "serve.queue_ms_p50": idle["queue_ms_p50"],
        "serve.queue_ms_p99": idle["queue_ms_p99"],
        "serve.batch_form_ms": idle["batch_form_ms"],
        "serve.compute_ms": idle["compute_ms"],
        "serve.net_overhead_ms":
            steps[low]["mean_ms"] - idle["net_latency_ms"],
        "serve.batch_size_mean": ladder["batch_size_mean"],
        "serve.shed": ladder["shed"],
        "serve.deadline": ladder["deadline"],
        "serve.max_rps_at_slo": max(passing) if passing else 0.0,
        "driver.late_ms_p99": max(s["late_ms_p99"] for s in steps),
    }


def flatten_layers(layers):
    flat = {}
    for key, value in layers.items():
        if isinstance(value, dict):
            flat.update(flatten_layers(value))
        else:
            flat[key] = value
    return flat


def trace_path(workload, seed, part="workload"):
    """Chrome trace of a traced run; kept in the build directory."""
    directory = os.path.join(BUILD_DIR, "traces")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, "%s-%d-%s.json" % (workload, seed, part))


def run_workload(workload, seed, seconds, trace, workdir):
    """Returns (metrics, attempted, failed, notes)."""
    reference = load_reference()
    if workload == "train_fold":
        out = training_run(workload, seed, seconds)
        attempted, failed, notes = check_training(workload, seed, out,
                                                  reference)
        metrics = training_metrics(out)
        print(epoch_note(out))
        metrics["slo_ok_frac"] = (attempted - failed) / attempted
        # Correct model fits per second of the median repetition.
        metrics["goodput_rps"] = (metrics["slo_ok_frac"] *
                                  out["operations_per_rep"] /
                                  metrics["wall_s"])
        if not trace:
            return metrics, attempted, failed, notes
        traced = training_run(workload, seed, 0,
                              trace_path(workload, seed), min_reps=1)
        t_attempted, t_failed, t_notes = check_training(workload, seed, traced,
                                                        reference)
        layers = flatten_layers(traced["layers"])
        for key in ("data.generate_ms", "data.features_ms", "graph.build_ms"):
            layers[key] = traced[key]
        layers["obs.trace_overhead_frac"] = (
            statistics.median(traced["wall_s"]) / metrics["wall_s"] - 1.0)
        experiment = training_run("experiment_map", seed, 0,
                                  trace_path("experiment_map", seed),
                                  min_reps=1)
        e_attempted, e_failed, e_notes = check_training(
            "experiment_map", seed, experiment, reference)
        e_layers = flatten_layers(experiment["layers"])
        for key in ("models.hpo_trial_ms_p50", "models.hpo_trial_ms_max",
                    "nn.epoch_ms", "par.utilization"):
            layers[key] = e_layers[key]
        return (layers, attempted + t_attempted + e_attempted,
                failed + t_failed + e_failed, notes + t_notes + e_notes)

    out = inproc_run(seed, seconds)
    attempted, failed, notes = inproc_check(out)
    metrics = inproc_metrics(out)
    if not trace:
        return metrics, attempted, failed, notes
    traced_seconds = min(seconds, TRACED_SECONDS)
    traced = inproc_run(seed, traced_seconds, trace_path(workload, seed))
    t_attempted, t_failed, t_notes = inproc_check(traced)
    layers = flatten_layers(traced["layers"])
    layers["obs.trace_overhead_frac"] = (
        traced["p50_ms"] / metrics["p50_ms"] - 1.0)
    network = network_run(seed, traced_seconds, workdir,
                          trace_path(workload, seed, "server"))
    n_attempted, n_failed, n_notes = serving_check(network)
    layers.update(network_layers(network))
    return (layers, attempted + t_attempted + n_attempted,
            failed + t_failed + n_failed, notes + t_notes + n_notes)


# --------------------------------------------------------------------------
# Output.

def host_facts(env_info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts = {"nproc": os.cpu_count(), "cpu": cpu,
             "kernel": platform.release()}
    facts.update(env_info)
    return facts


def result_line(names_units, values, attempted, failed):
    metrics = {}
    for name, unit in names_units.items():
        value = values.get(name, 0.0)
        metrics[name] = {"value": float(value), "unit": unit}
    return json.dumps({"correct": failed == 0, "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        build()
        env_info = run_bench(["env"])
        for key, value in host_facts(env_info).items():
            print("env %-24s %s" % (key, value))
        workdir = os.path.join(BUILD_DIR, "run-%s-%d-%d" %
                               (args.workload, args.seed, os.getpid()))
        os.makedirs(workdir, exist_ok=True)
        try:
            values, attempted, failed, notes = run_workload(
                args.workload, args.seed, args.seconds, args.trace, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as err:
        log("perfbench: %s" % err)
        return 1

    names_units = PER_LAYER if args.trace else END_TO_END
    for name, unit in names_units.items():
        print("%-28s %14.6g %s" % (name, values.get(name, 0.0), unit))
    for note in notes:
        print("check", note)
    print("correct %s (%d of %d operations failed)" %
          ("yes" if failed == 0 else "NO", failed, attempted))
    print(result_line(names_units, values, attempted, failed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
