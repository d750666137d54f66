"""liebutcher benchmark: one closed-loop client, one request in flight.

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 40 --trace 0

Workloads (the seed generates the requests; the program sees only argv and
input files):

  cli-cold        fresh-process CLI requests over the symbolic subcommands,
                  degrees 3-8, about 5% malformed
  lib-warm        one long-lived library session after a warm-up pass
  sphere-numeric  fresh-process integrate / converge / matrix-axiom requests

Times are scaled to a nominal machine speed.  The small shared machines this
runs on drift for minutes at a time between speed states about 1.4x apart,
which no request mix averages away.  A gauge runs between requests, outside
every timed window, and each time is multiplied by nominal / gauge time
around it.  The CLI workloads gauge a bare interpreter start (`python3 -c
pass`, which tracks process start and import speed), lib-warm a fixed
pure-Python loop.  Raw times are printed on the lines starting with "# raw".

Every response is checked: symbolic stdout against SHA-256 digests recorded
from the seed commit, numeric output against recorded values within stated
tolerances, library results against exact identities and oracles.  With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced replay plus layer probes.

    python3 bench/run.py --record    # re-record expected.json from this tree

Re-record only when an output change is intended and explained.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"
WORKLOADS = ("cli-cold", "lib-warm", "sphere-numeric")
# set-up samples per run, taken at evenly spaced points of the run so that a
# slow spell of the machine weighs on set-up as on the requests
SETUP_SAMPLES = {"cli-cold": 8, "sphere-numeric": 8, "lib-warm": 4}
REQUEST_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
GAUGE_EVERY_S = 0.2  # lib-warm: request time between gauge samples
GAUGE_STRIDE = 2  # CLI workloads: requests between gauge samples

sys.path.insert(0, str(BENCH))

import catalogue  # noqa: E402
import tracer  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in THREAD_VARS:
        env[var] = "1"  # never more than nproc; one request, one thread
    return env


def header(args) -> None:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    print(f"# python {platform.python_version()}  numpy {numpy.__version__}  "
          f"nproc {os.cpu_count()}  cpu {cpu}")
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  threads {','.join(f'{v}=1' for v in THREAD_VARS)}")


def loop_probe() -> float:
    """Best of three runs of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = {}
        for i in range(12000):
            acc[i & 255] = acc.get(i & 255, 0) + i * 3 % 7
        best = min(best, time.perf_counter() - start)
    return best


def spawn_probe() -> float:
    """Wall time of a bare interpreter start."""
    return spawn([sys.executable, "-c", "pass"], ROOT, child_env())[3]


class Gauge:
    """Machine speed samples; factor() scales a raw time to the nominal speed."""

    def __init__(self, probe, nominal_s):
        self.probe, self.nominal_s = probe, nominal_s
        self.samples: list[float] = []

    def sample(self) -> int:
        self.samples.append(self.probe())
        return len(self.samples) - 1

    def factor(self, i: int) -> float:
        """Scale for a time taken between samples i and i + 1 (or after i)."""
        around = self.samples[i:i + 2]
        return self.nominal_s / (sum(around) / len(around))


def loop_gauge():
    return Gauge(loop_probe, 2.0e-3)


def spawn_gauge():
    return Gauge(spawn_probe, 0.05)


# ---------------------------------------------------------------------------
# one CLI request in a fresh process


def _drain(proc, deadline):
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            events = sel.select(timeout=max(0.0, deadline - time.perf_counter()))
            if not events and time.perf_counter() >= deadline:
                proc.kill()
                deadline = float("inf")
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def spawn(argv, cwd, env):
    """Run argv to exit; (rc, stdout, stderr, wall_s, cpu_s, maxrss_kb)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = _drain(proc, start + REQUEST_TIMEOUT_S)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


class CliClient:
    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.env = child_env()
        self.cwd = WORK / "req"
        self.cwd.mkdir(parents=True, exist_ok=True)

    def run(self, req, traced_to=None, rid=None):
        """Write the request's input files and run it; the result of spawn()."""
        for name, text in req.files:
            (self.cwd / name).write_text(text, encoding="utf-8")
        (self.cwd / "traj.csv").unlink(missing_ok=True)
        if traced_to is None:
            prefix = [sys.executable, "-m", "liebutcher.cli"]
        else:
            prefix = [sys.executable, str(BENCH / "tracer.py"), str(traced_to), str(rid), "--"]
        return spawn(prefix + list(req.argv), self.cwd, self.env)

    def send(self, req, traced_to=None, rid=None):
        """Run and check one request; (wall, cpu, maxrss, problem or None)."""
        rc, out, err, wall, cpu, rss = self.run(req, traced_to, rid)
        want = self.expected.get(req.key)
        if want is None:
            problem = "no recorded expectation; catalogue changed, re-record"
        else:
            problem = catalogue.check(req, rc, out, err, want, self.cwd)
        return wall, cpu, rss, problem

    def loop(self, seed, seconds, tick, gauge):
        """Send requests until `seconds` of request time.

        Returns [(request, wall, cpu, maxrss, problem, gauge index)].
        tick = (count, fn) calls fn at `count` evenly spaced points of the
        run; the gauge is sampled before every GAUGE_STRIDE-th request.
        """
        done, busy, ticks = [], 0.0, 0
        for i, req in enumerate(catalogue.stream(self.workload, seed)):
            if busy >= seconds:
                break
            if ticks < tick[0] and busy >= ticks * seconds / tick[0]:
                tick[1]()
                ticks += 1
            if i % GAUGE_STRIDE == 0:
                gauge.sample()
            wall, cpu, rss, problem = self.send(req)
            busy += wall
            done.append((req, wall, cpu, rss, problem, len(gauge.samples) - 1))
        gauge.sample()
        return done


def import_times(samples, code="import liebutcher.cli"):
    env = child_env()
    times = []
    for _ in range(samples):
        rc, _, err, wall, _, _ = spawn([sys.executable, "-c", code], ROOT, env)
        if rc != 0:
            raise SystemExit(f"set-up failed: {err.decode(errors='replace').strip()}")
        times.append(wall)
    return times


# ---------------------------------------------------------------------------
# end-to-end metrics


def metric(value, unit):
    return {"value": value, "unit": unit}


def e2e_metrics(latencies, cpu, correct, setup, rss_kb):
    n = len(latencies)
    return {
        "requests_per_s": metric(correct / sum(latencies), "1/s"),
        "request_s_p50": metric(catalogue.percentile(latencies, 50), "s"),
        "request_s_p90": metric(catalogue.percentile(latencies, 90), "s"),
        "cpu_s_per_request": metric(sum(cpu) / n, "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
    }


def scaled_e2e(name, lat, cpu, factors, failures, setup, rss_kb, gauge):
    """Report raw figures, return the metrics scaled to the nominal speed."""
    n = len(lat)
    raw = e2e_metrics(lat, cpu, n - len(failures), [s for s, _ in setup], rss_kb)
    scaled_lat = [t * f for t, f in zip(lat, factors)]
    p = {q: catalogue.percentile(scaled_lat, q) for q in (85, 90, 95)}
    g = sorted(gauge.samples)
    print(f"# {name}: {n} requests, {len(failures)} failed, {sum(lat):.2f} s with a request in flight")
    print(f"# gauge: {len(g)} samples, median {statistics.median(g) * 1e3:.3f} ms "
          f"(min {g[0] * 1e3:.3f}, max {g[-1] * 1e3:.3f}); nominal {gauge.nominal_s * 1e3:.3f} ms")
    print(f"# p90 has {n - int(0.9 * n) - 1} samples above it; neighbourhood "
          f"p85 {p[85]:.4f}  p90 {p[90]:.4f}  p95 {p[95]:.4f}")
    for key in ("requests_per_s", "request_s_p50", "request_s_p90", "cpu_s_per_request", "setup_s"):
        print(f"# raw {key:44s} {raw[key]['value']:.6g} {raw[key]['unit']}")
    for reason in failures[:10]:
        print(f"# FAILED {reason}")
    return e2e_metrics(scaled_lat, [c * f for c, f in zip(cpu, factors)], n - len(failures),
                       [s * gauge.factor(i) for s, i in setup], rss_kb)


def cold_e2e(workload, seed, seconds, expected):
    gauge = spawn_gauge()
    setup = []

    def setup_sample():
        i = gauge.sample()
        setup.append((import_times(1)[0], i))

    client = CliClient(workload, expected)
    done = client.loop(seed, seconds, (SETUP_SAMPLES[workload], setup_sample), gauge)
    failures = [f"{d[0].label()}: {d[4]}" for d in done if d[4]]
    factors = [gauge.factor(d[5]) for d in done]
    metrics = scaled_e2e(workload, [d[1] for d in done], [d[2] for d in done], factors,
                         failures, setup, max(d[3] for d in done), gauge)
    return len(done), len(failures), metrics


def libwarm_e2e(seed, seconds, expected):
    import libwarm

    def fresh_setup():
        rc, out, err, _, _, _ = spawn([sys.executable, str(BENCH / "libwarm.py"), "setup"],
                                      ROOT, child_env())
        if rc != 0:
            raise SystemExit(f"set-up failed: {err.decode(errors='replace').strip()}")
        return json.loads(out)["setup_s"]

    gauge = loop_gauge()
    lib, own = libwarm.setup()
    setup = [(own, gauge.sample())]
    samples = SETUP_SAMPLES["lib-warm"] - 1
    done, busy, cpu, at, last = [], 0.0, [], [], -1.0
    for req in libwarm.stream(lib, seed):
        if busy >= seconds:
            break
        if len(setup) <= samples and busy >= (len(setup) - 1) * seconds / samples:
            i = gauge.sample()
            setup.append((fresh_setup(), i))
        if busy - last >= GAUGE_EVERY_S:
            gauge.sample()
            last = busy
        before = resource.getrusage(resource.RUSAGE_SELF)
        req.run()
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
        busy += req.latency
        done.append(req)
        at.append(len(gauge.samples) - 1)
    gauge.sample()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check = libwarm.Checker(lib, expected)
    failures = [f"{r.kind}: {p}" for r in done if (p := check(r))]
    metrics = scaled_e2e("lib-warm", [r.latency for r in done], cpu,
                         [gauge.factor(i) for i in at], failures, setup, rss_kb, gauge)
    return len(done), len(failures), metrics


# ---------------------------------------------------------------------------
# traced run: layer probes plus an untraced and a traced replay


def _load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


class LayerTotals:
    """Per-layer sums over span dumps from many processes."""

    def __init__(self):
        self.busy: dict[str, float] = {}
        self.pred = self.lib = 0.0
        self.terms = 0
        self.hits = self.misses = self.currsize = 0
        self.have_cache = None
        self.spans = []

    def add(self, dump, cache_delta=None):
        """Fold in one process's dump; returns its (predicate, library) seconds."""
        spans = [tuple(s) for s in dump["spans"]]
        self.spans.extend(spans)
        for name, sec in tracer.busy_seconds(spans).items():
            self.busy[name] = self.busy.get(name, 0.0) + sec
        pred, lib = tracer.validate_parts(spans)
        self.pred += pred
        self.lib += lib
        self.terms += dump["terms_out"]
        counters = cache_delta if cache_delta is not None else dump["caches"]
        info = counters.get("postlie.graft_attachments")
        self.have_cache = (self.have_cache is not False) and info is not None
        if info is not None:
            self.hits += info[0]
            self.misses += info[1]
            self.currsize = max(self.currsize, info[2])
        return pred, lib


BUSY = (
    "trees.parse_forest", "trees.render_forest",
    "series.concat", "series.shuffle", "series.deshuffle", "series.to_json", "series.from_json",
    "postlie.triangleright", "postlie.gl_product", "postlie.check_postlie_axioms",
    "lbseries.exp_concat", "lbseries.exp_gl", "lbseries.log_gl", "lbseries.magnus_chi",
    "lbseries.lie_midpoint_field", "lbseries.first_defect", "lbseries.is_character",
    "lbseries.is_inf_character", "matrixpostlie.eval_F", "sphere.trajectory",
)


def defect_probes():
    """Known defects replayed outside the timed stream; count the failures."""
    client = CliClient("cli-cold", {})
    failed = 0
    for req in catalogue.DEFECT_PROBES:
        rc, out, err, _, _, _ = client.run(req)
        bad = catalogue.defect_shows(req, rc, out, err)
        failed += bad
        print(f"# defect probe {'FAILS' if bad else 'ok   '} rc={rc}: {req.label()[:70]}")
    return failed


def traced_run(workload, seed, seconds, expected):
    started = time.perf_counter()
    tdir = WORK / f"trace-{workload}-{seed}"
    tdir.mkdir(parents=True, exist_ok=True)
    for old in tdir.glob("*.json"):
        old.unlink()
    totals = LayerTotals()
    rc, _, err, _, _, _ = spawn([sys.executable, str(BENCH / "probes.py"), str(tdir / "probe.json")],
                                ROOT, child_env())
    if rc != 0:
        raise SystemExit(f"probes failed: {err.decode(errors='replace').strip()}")
    probe = _load(tdir / "probe.json")
    totals.add(probe)
    bare = statistics.median(import_times(5, "pass"))
    full = statistics.median(import_times(5))
    defects = defect_probes()

    budget = max(1.0, (seconds - (time.perf_counter() - started)) / 2.1)
    if workload == "lib-warm":
        attempted, failed, t0, t1 = _traced_libwarm(seed, budget, tdir, totals)
    else:
        # each request untraced, then traced, so machine drift cancels
        client = CliClient(workload, expected)
        plain, traced, t0, t1 = [], [], 0.0, 0.0
        for i, req in enumerate(catalogue.stream(workload, seed)):
            if t0 >= budget:
                break
            plain.append((req, *client.send(req)))
            traced.append((req, *client.send(req, tdir / f"{i}.json", i)))
            t0 += plain[-1][1]
            t1 += traced[-1][1]
        attempted = len(plain) + len(traced)
        problems = [f"{d[0].label()}: {d[4]}" for d in plain + traced if d[4]]
        failed = len(problems)
        for p in problems[:10]:
            print(f"# FAILED {p}")
        for i, d in enumerate(traced):
            pred, lib = totals.add(_load(tdir / f"{i}.json"))
            if d[1] >= 1.0 and pred:
                print(f"# traced request {d[0].label()}: {d[1]:.3f} s, library {lib:.3f} s, "
                      f"predicates {pred:.3f} s, validate_share {pred / lib:.3f}")
    print(f"# replay: {attempted // 2} requests, untraced {t0:.3f} s, traced {t1:.3f} s")
    (WORK / f"spans-{workload}-{seed}.json").write_text(
        json.dumps({"columns": ["name", "start_ns", "end_ns", "parent", "request"],
                    "spans": totals.spans}), encoding="utf-8")

    m = {}
    m["cli.interp_s"] = metric(bare, "s")
    m["cli.import_s"] = metric(full - bare, "s")
    m["cli.defect_probes.failed"] = metric(defects, "count")
    for name, (value, unit) in probe["metrics"].items():
        m[name] = metric(value, unit)
    for name in BUSY:
        m[f"{name}.busy_s"] = metric(totals.busy.get(name, 0.0), "s")
    m["series.terms_out"] = metric(totals.terms, "count")
    if totals.have_cache:
        total = totals.hits + totals.misses
        m["postlie.graft_attachments.hit_ratio"] = metric(totals.hits / total if total else 0.0, "ratio")
        m["postlie.graft_attachments.currsize"] = metric(totals.currsize, "count")
    m["lbseries.validate_share"] = metric(totals.pred / totals.lib if totals.lib else 0.0, "ratio")
    m["trace.overhead_s"] = metric(t1 - t0, "s")
    return attempted, failed, m


def _traced_libwarm(seed, budget, tdir, totals):
    runs = {}
    for mode in ("plain", "traced"):
        out = tdir / f"libwarm-{mode}.json"
        argv = [sys.executable, str(BENCH / "libwarm.py"), "replay", str(seed), str(out)]
        if mode == "plain":
            argv += ["--seconds", repr(budget)]
        else:
            argv += ["--count", str(runs["plain"]["count"]), "--trace"]
        rc, _, err, _, _, _ = spawn(argv, ROOT, child_env())
        if rc != 0:
            raise SystemExit(f"lib-warm replay failed: {err.decode(errors='replace').strip()}")
        runs[mode] = _load(out)
    for mode in ("plain", "traced"):
        for p in runs[mode]["failures"][:10]:
            print(f"# FAILED {p}")
    totals.add(runs["traced"], cache_delta=runs["traced"]["cache_delta"])
    attempted = runs["plain"]["count"] + runs["traced"]["count"]
    failed = len(runs["plain"]["failures"]) + len(runs["traced"]["failures"])
    return attempted, failed, runs["plain"]["wall_s"], runs["traced"]["wall_s"]


# ---------------------------------------------------------------------------
# recording expectations from the current tree


def record() -> int:
    body = {}
    for workload in ("cli-cold", "sphere-numeric"):
        client = CliClient(workload, {})
        recs = {}
        for cls, reqs in catalogue.pools(workload).items():
            for req in reqs:
                rc, out, err, wall, _, _ = client.run(req)
                if b"Traceback" in err or (rc == 0) == (cls == "error") or rc not in (0, 1, 2):
                    raise SystemExit(f"unusable catalogue entry ({rc}): {req.label()}\n{err.decode()}")
                rec = catalogue.expected_record(req, rc, out, client.cwd)
                problem = catalogue.check(req, rc, out, err, rec, client.cwd)
                if problem:
                    raise SystemExit(f"catalogue entry fails its own check: {req.label()}: {problem}")
                recs[req.key] = rec
                print(f"{wall:7.3f} s  rc={rc}  {req.label()[:100]}", flush=True)
        body[workload] = recs
    import libwarm

    body["lib-warm"] = libwarm.eval_f_expectations(libwarm.Lib())
    EXPECTED.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "liebutcher" / "__init__.py").is_file():
        print(f"error: no liebutcher sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if not EXPECTED.is_file():
        print(f"error: {EXPECTED} missing; run with --record", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    header(args)
    want = expected["lib-warm" if args.workload == "lib-warm" else args.workload]
    if args.trace:
        attempted, failed, metrics = traced_run(args.workload, args.seed, args.seconds, want)
    elif args.workload == "lib-warm":
        attempted, failed, metrics = libwarm_e2e(args.seed, args.seconds, want)
    else:
        attempted, failed, metrics = cold_e2e(args.workload, args.seed, args.seconds, want)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
