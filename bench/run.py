"""curvlab benchmark: closed-loop workloads with checked outputs.

    python3 bench/run.py --workload frame_search --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --label mychange

One client in one process issues seeded jobs back to back (a closed loop)
through curvlab's public API and ``curvlab.cli.main``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the jobs once untraced and once
under the span tracer and reports per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload, untraced
and traced, each in a fresh process, prints a table and, with ``--label``,
writes ``bench/results/BENCH_<label>.json``.

The program is imported from ``src/`` of the checkout this file sits in.  The
benchmark never sets ``CURVLAB_THREADS`` or any BLAS thread variable.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import jobs
import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RESULTS = HERE / "results"

# Seconds per round of each workload, set so that a run of 35 seconds, its
# setup samples included, takes about 35 seconds at the seed commit (2-core
# x86 container, Python 3.11, numpy 2.4): 4, 4 and 12 rounds.  A run does
# round(seconds / nominal) rounds, so every run of a workload, and every
# commit, does the same work and the tail percentile always ranks the same
# jobs.
NOMINAL_ROUND_S = {"frame_search": 8.5, "cone_oracles": 9.0, "point_pipeline": 2.9}
SETUP_SAMPLES = 5          # fresh processes timed for setup_s (this one included)
TAIL_BEYOND = 10           # jobs that must lie beyond the reported tail percentile
VALUE_GAP_SLACK = 0.25     # share by which value_gap may exceed the seed commit's
THREAD_VARS = ("CURVLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
                    "job_tail_ms": "ms", "failed_frac": "frac", "value_gap": "rel",
                    "peak_rss_mb": "MB", "cpu_s_per_job": "s"}
# metrics compared between commits with a bound; failed_frac and value_gap are
# zero on a correct program and are gated through "correct" and the job checks
GATED = ("setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb", "cpu_s_per_job")

# (traced function, field) reported per function; layers add "<layer>.self_s"
LAYER_METRICS = [
    ("metrics.jet_at", "calls"), ("metrics.jet_at", "self_s"),
    ("metrics.finite_difference_jet", "calls"), ("metrics.finite_difference_jet", "self_s"),
    ("curvature.curvature_from_jet", "calls"), ("curvature.curvature_from_jet", "self_s"),
    ("curvature.to_frame", "calls"), ("curvature.to_frame", "self_s"),
    ("curvature.transform_frame", "calls"), ("curvature.transform_frame", "self_s"),
    ("functionals.matrices_from", "calls"), ("functionals.matrices_from", "self_s"),
    ("functionals.rayleigh_bounds", "calls"), ("functionals.rayleigh_bounds", "self_s"),
    ("functionals.fs_moment_check", "self_s"),
    ("linalg.self_adjoint_eigen", "calls"), ("linalg.self_adjoint_eigen", "self_s"),
    ("linalg.haar_from_rng", "calls"), ("linalg.cholesky_frame", "calls"),
    ("cones.cone_min", "calls"), ("cones.cone_min", "self_s"),
    ("cones.perron_criterion_check", "calls"), ("cones.perron_criterion_check", "self_s"),
    ("search.extremize", "calls"), ("search.extremize", "self_s"),
    ("search.unitary_from_params", "calls"), ("search.unitary_from_params", "self_s"),
    ("search.tricerri_family_extrema", "self_s"), ("search.invariance_test", "self_s"),
    ("verify.run_suite", "calls"), ("verify.run_suite", "self_s"),
    ("verify.cone_oracle_disagreements", "self_s"),
    ("cli.main", "calls"), ("_util.parallel_map", "calls"), ("_util.parallel_map", "self_s"),
]
LAYERS = ("metrics", "curvature", "functionals", "linalg", "cones", "search", "verify",
          "cli", "reports", "_util")


def metric_name(name):
    """Benchmark names start with a letter: the ``_util`` layer reports as ``util``."""
    return name.lstrip("_")


# ---------------------------------------------------------------------------
# statistics

def tail_percentile(latencies, beyond=TAIL_BEYOND):
    """The highest percentile that still has ``beyond`` samples above it.

    Returns (value, percentile, sample count).  With N sorted samples that is
    the (N - beyond)-th smallest, at percentile 100 (N - beyond) / N.  With
    ``beyond`` or fewer samples no percentile qualifies and the maximum is
    returned at percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, n
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n


# ---------------------------------------------------------------------------
# running jobs

def load_program():
    """Put the checkout's ``src`` first on the path and import curvlab from it."""
    if not (SRC / "curvlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no curvlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import curvlab
    if Path(curvlab.__file__).resolve().parent != (SRC / "curvlab").resolve():
        raise SystemExit(f"error: imported curvlab from {curvlab.__file__}, not {SRC}")


def execute(job):
    """Run and check one job: (latency s, CPU s, output, failure message or
    None, shortfall triples).  Only ``job.run()`` is timed."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out, failure = job.run(), None
    except Exception:          # a raising job is a failed job; keep going
        out, failure = None, traceback.format_exc(limit=3)
    latency, cpu = time.perf_counter() - t0, time.process_time() - c0
    gaps = []
    if failure is None:
        try:
            gaps = job.check(out)
        except jobs.CheckFailed as exc:
            failure = str(exc)
        except Exception:
            failure = traceback.format_exc(limit=3)
    return latency, cpu, out, failure, gaps


class Pass:
    """Latencies, CPU times, failures and shortfalls of a pass over a job
    list; with ``fingerprint`` also a digest of every output."""

    def __init__(self, fingerprint=False):
        self.fingerprint = fingerprint
        self.latency, self.cpu, self.prints, self.failures, self.gaps = [], [], [], [], []

    def add(self, i, job):
        latency, cpu, out, failure, gaps = execute(job)
        self.latency.append(latency)
        self.cpu.append(cpu)
        if self.fingerprint:
            self.prints.append(jobs.fingerprint(out))
        self.gaps += gaps
        if failure:
            self.failures.append({"job": i, "class": job.cls, "error": failure})


def value_gap_gate(gaps):
    """(value_gap, expected, allowed) of a run's shortfall triples.

    ``value_gap`` is the mean shortfall.  ``expected`` is the mean the seed
    commit shows on the same jobs.  ``allowed`` adds ``VALUE_GAP_SLACK`` of
    that, three standard deviations of the seed commit's mean, and the check
    tolerance of exact references; a run above it finds worse optima than
    the seed commit did and is not correct.
    """
    if not gaps:
        return 0.0, 0.0, 0.0
    found, mean, var = np.array(gaps, dtype=float).T
    n = len(found)
    allowed = ((1.0 + VALUE_GAP_SLACK) * mean.sum() + 3.0 * np.sqrt(var.sum())) / n + jobs.TOL
    return float(found.mean()), float(mean.mean()), float(allowed)


def build(workload, seed, rounds, lib):
    """The job list of a run: ``rounds`` rounds, each in its own seeded order."""
    stored = refs.load_stored()
    mix = jobs.WORKLOADS[workload][0]
    job_list = []
    for r in range(rounds):
        rng = np.random.default_rng([seed % (1 << 63), r])
        round_jobs = mix(lib, stored, rng)
        job_list += [round_jobs[i] for i in rng.permutation(len(round_jobs))]
    return job_list


def setup(workload, seed):
    """Import curvlab and its CLI, then run one warm-up job per job class.
    Returns (seconds, library handle, failed warm-ups)."""
    t0 = time.perf_counter()
    load_program()
    lib = jobs.Library()
    warm = jobs.WORKLOADS[workload][1](lib, refs.load_stored(),
                                       np.random.default_rng([seed % (1 << 63), 1 << 20]))
    failed = [job.cls for job in warm if execute(job)[3] is not None]
    return time.perf_counter() - t0, lib, failed


def setup_probe(workload, seed):
    """Setup time measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
           "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_metadata(workload, seed, seconds, rounds, job_list):
    counts = {}
    for job in job_list:
        counts[job.cls] = counts.get(job.cls, 0) + 1
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": workload, "seed": seed, "seconds": seconds, "rounds": rounds,
            "jobs": len(job_list), "jobs_per_class": dict(sorted(counts.items())),
            "git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(),
            "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
            "client": "closed loop, 1 client, 1 process"}


def rounds_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


# ---------------------------------------------------------------------------
# the two kinds of run

def end_to_end(args):
    setup_s, lib, warm_failed = setup(args.workload, args.seed)
    samples = [setup_s]
    rounds = rounds_for(args.workload, args.seconds)
    job_list = build(args.workload, args.seed, rounds, lib)
    size = len(job_list) // rounds
    # The other setup samples are taken between rounds, spread over the run,
    # so that their median sees the machine's speed over the whole run.
    probe_after = [max(1, round(k * rounds / (SETUP_SAMPLES - 1)))
                   for k in range(1, SETUP_SAMPLES)]
    p = Pass()
    for r in range(rounds):
        for i in range(r * size, (r + 1) * size):
            p.add(i, job_list[i])
        samples += [setup_probe(args.workload, args.seed)["setup_s"]
                    for _ in range(probe_after.count(r + 1))]
    value_gap, gap_expected, gap_allowed = value_gap_gate(p.gaps)
    attempted, failed = len(job_list), len(p.failures)
    failed_ids = {f["job"] for f in p.failures}
    done = [i for i in range(attempted) if i not in failed_ids]
    # Every round is the same mix of job classes.  Each completed job is
    # ranked by its class's median latency over the rounds, and throughput and
    # CPU per job are medians over rounds, so a job or a round that a passing
    # slowdown of the shared machine delayed does not set the figure.
    by_class = {}
    for i in done:
        by_class.setdefault(job_list[i].cls, []).append(p.latency[i])
    class_s = {c: statistics.median(v) for c, v in sorted(by_class.items())}
    ranked = [class_s[job_list[i].cls] for i in done] or [0.0]
    tail, pct, count = tail_percentile(ranked)
    per_round = []
    for r in range(rounds):
        ids = range(r * size, (r + 1) * size)
        per_round.append((sum(i not in failed_ids for i in ids) / sum(p.latency[i] for i in ids),
                          sum(p.cpu[i] for i in ids) / size))
    values = {
        "setup_s": statistics.median(samples),
        "jobs_per_s": statistics.median(r[0] for r in per_round),
        "job_p50_ms": 1e3 * statistics.median(ranked),
        "job_tail_ms": 1e3 * tail,
        "failed_frac": failed / attempted,
        "value_gap": value_gap,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s_per_job": statistics.median(r[1] for r in per_round),
    }
    raw = sorted(p.latency[i] for i in done) or [0.0]
    details = {"jobs": [[job.cls, lat, cpu] for job, lat, cpu
                        in zip(job_list, p.latency, p.cpu)],
               "round_size": size, "setup_samples_s": samples, "job_p50_samples": len(done),
               "class_median_ms": {c: 1e3 * v for c, v in class_s.items()},
               "job_tail_percentile": pct, "job_tail_samples": count,
               "unsmoothed_job_p50_ms": 1e3 * statistics.median(raw),
               "unsmoothed_job_tail_ms": 1e3 * tail_percentile(raw)[0],
               "per_round_jobs_per_s": [r[0] for r in per_round],
               "value_gap_extrema": len(p.gaps), "value_gap_expected": gap_expected,
               "value_gap_allowed": gap_allowed, "job_wall_s": sum(p.latency),
               "warmup_failures": warm_failed, "failures": p.failures[:20]}
    meta = run_metadata(args.workload, args.seed, args.seconds, rounds, job_list)
    for name in END_TO_END_UNITS:
        extra = ""
        if name == "job_p50_ms":
            extra = f"  (n={len(done)})"
        elif name == "job_tail_ms":
            extra = f"  (p{pct:.2f}, n={count}, {TAIL_BEYOND} beyond)"
        elif name == "value_gap":
            extra = f"  (seed commit {gap_expected:.6g}, allowed {gap_allowed:.6g})"
        print(f"{args.workload:15s} {name:14s} {values[name]:14.6g} {END_TO_END_UNITS[name]}{extra}")
    for f in p.failures[:5]:
        print(f"FAILED job {f['job']} {f['class']}: {f['error'].strip()}", file=sys.stderr)
    gap_ok = value_gap <= gap_allowed
    if not gap_ok:
        print(f"FAILED value_gap {value_gap:.6g} exceeds {gap_allowed:.6g}", file=sys.stderr)
    write_json(OUT / f"{args.workload}_seed{args.seed}_trace0.json",
               {"meta": meta, "metrics": values, "details": details})
    ok = failed == 0 and not warm_failed and gap_ok
    return {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": END_TO_END_UNITS[k]} for k in GATED}}


def traced(args):
    import tracer as tracing
    _, lib, warm_failed = setup(args.workload, args.seed)
    rounds = max(1, rounds_for(args.workload, args.seconds) // 2)
    job_list = build(args.workload, args.seed, rounds, lib)
    for job in job_list[:len(job_list) // rounds]:   # untimed: first-touch costs
        execute(job)
    plain, spanned = Pass(fingerprint=True), Pass(fingerprint=True)
    tr = tracing.Tracer()
    fd_evals = fd_jets = 0
    # Every job runs untraced and traced back to back, in an order that
    # alternates from job to job, so that drift of the machine's speed falls
    # on both passes alike.
    for i, job in enumerate(job_list):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.add(i, job)
                continue
            evals, jets = lib.fd_evals, lib.fd_jets
            tr.current_job = i
            with tr:
                spanned.add(i, job)
            fd_evals += lib.fd_evals - evals
            fd_jets += lib.fd_jets - jets
    summary = tr.summary()
    OUT.mkdir(parents=True, exist_ok=True)
    tr.save(OUT / f"{args.workload}_seed{args.seed}_spans.npz")

    mismatched = [i for i, (a, b) in enumerate(zip(plain.prints, spanned.prints)) if a != b]
    failed_jobs = {f["job"] for f in plain.failures + spanned.failures} | set(mismatched)
    gates = [value_gap_gate(p.gaps) for p in (plain, spanned)]
    gap_ok = all(gap <= allowed for gap, _, allowed in gates)
    job_wall = sum(spanned.latency)
    fns, layer_self = summary["functions"], summary["layers"]
    values = {}
    for fn, field in LAYER_METRICS:
        values[f"{metric_name(fn)}.{field}"] = fns.get(fn, {"calls": 0, "self_s": 0.0})[field]
    for layer in LAYERS:
        values[f"{metric_name(layer)}.self_s"] = layer_self.get(layer, 0.0)
    ext_calls = fns.get("search.extremize", {"calls": 0})["calls"]
    values.update({
        "metrics.fd_evals": fd_evals,
        "metrics.fd_evals_per_jet": fd_evals / fd_jets if fd_jets else 0.0,
        "cones.cone_min.restricted_calls": summary["restricted_cone_calls"],
        "search.frames_per_extremize": (summary["frames_in_extremize"] / ext_calls
                                        if ext_calls else 0.0),
        "trace.overhead_frac": job_wall / sum(plain.latency) - 1.0,
        "trace.unattributed_frac": 1.0 - sum(layer_self.values()) / job_wall,
        "trace.spans": summary["spans"],
    })
    details = {"self_s_by_n": summary["self_s_by_n"], "layers_self_s": layer_self,
               "functions": fns, "traced_job_wall_s": job_wall,
               "untraced_job_wall_s": sum(plain.latency), "mismatched_jobs": mismatched,
               "value_gap_gates": gates,
               "failures": (plain.failures + spanned.failures)[:20]}
    meta = run_metadata(args.workload, args.seed, args.seconds, rounds, job_list)
    write_json(OUT / f"{args.workload}_seed{args.seed}_trace1.json",
               {"meta": meta, "metrics": values, "details": details})
    for name in sorted(values):
        print(f"{args.workload:15s} {name:42s} {values[name]:14.6g} {unit_of(name)}")
    for n_layer, by_n in sorted(summary["self_s_by_n"].items()):
        cells = "  ".join(f"n={n}:{s:.4f}" for n, s in sorted(by_n.items()))
        print(f"{args.workload:15s} self_s by n  {n_layer:12s} {cells}")
    ok = not failed_jobs and not warm_failed and gap_ok
    return {"correct": ok, "attempted": len(job_list), "failed": len(failed_jobs),
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}}


def unit_of(name):
    if name.endswith(".self_s"):
        return "s"
    if name == "search.frames_per_extremize":
        return "frames/call"
    if name == "metrics.fd_evals_per_jet":
        return "evals/jet"
    if name in ("trace.overhead_frac", "trace.unattributed_frac"):
        return "frac"
    return "count"


def write_json(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True, default=str) + "\n")


# ---------------------------------------------------------------------------
# every workload at once

def run_all(args):
    report, ok = {}, True
    for workload in NOMINAL_ROUND_S:
        report[workload] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"error: {workload} --trace {trace} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            detail = json.loads((OUT / f"{workload}_seed{args.seed}_trace{trace}.json").read_text())
            report[workload]["trace" if trace else "end_to_end"] = detail
    if args.label:
        write_json(RESULTS / f"BENCH_{args.label}.json",
                   {"label": args.label, "seed": args.seed, "seconds": args.seconds,
                    "workloads": report})
    print(json.dumps({"correct": ok, "workloads": list(report)}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*NOMINAL_ROUND_S, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default=None, help="with --workload all: results file label")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        load_program()
        return run_all(args)
    if args.setup_probe:
        seconds, _, failed = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds, "failed": failed}))
        return
    result = end_to_end(args) if args.trace == 0 else traced(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
