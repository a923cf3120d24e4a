"""Self-tests of the benchmark: the tail percentile rule, failure counting,
the value-gap gate, the tracer's transparency, and the exact cone reference.

    python3 -m pytest -q bench/test_bench.py
"""

import json

import numpy as np
import pytest

import run

run.load_program()

import jobs      # noqa: E402
import refs      # noqa: E402
import tracer    # noqa: E402


@pytest.mark.parametrize("n", [11, 12, 50, 100, 457])
def test_tail_percentile_leaves_ten_beyond(n):
    xs = np.random.default_rng(n).permutation(np.arange(n, dtype=float))
    value, pct, count = run.tail_percentile(list(xs))
    assert count == n
    assert np.count_nonzero(xs > value) == run.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - run.TAIL_BEYOND) / n)


def test_tail_percentile_with_ties_still_has_ten_beyond():
    xs = [1.0] * 30 + [5.0] * 10 + [9.0] * 10
    value, pct, _ = run.tail_percentile(xs)
    assert value == 5.0 and sum(x > value for x in xs) >= run.TAIL_BEYOND
    assert pct == 80.0


def test_tail_percentile_too_few_samples_reports_the_maximum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def run_pass(job_list, fingerprint=False):
    p = run.Pass(fingerprint)
    for i, job in enumerate(job_list):
        p.add(i, job)
    return p


@pytest.fixture(scope="module")
def lib():
    return jobs.Library()


def corrupt(job, edit):
    """The same job with its output edited before the check sees it."""
    original = job.run
    job.run = lambda: edit(original())
    return job


def job_argv(job):
    """The command line a CLI job runs."""
    return next(c.cell_contents for c in job.run.__closure__
                if isinstance(c.cell_contents, list))


def bump_json(path, delta):
    def edit(out):
        code, stdout, stderr = out
        data = json.loads(stdout)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta
        return code, json.dumps(data), stderr
    return edit


def test_correct_jobs_pass(lib):
    rng = np.random.default_rng(3)
    stored = refs.load_stored()
    good = [jobs.job_scan_family(lib, rng, "rbc"),
            jobs.job_cone_check(lib, stored, rng, 3, "orthant"),
            jobs.job_pipeline(lib, rng, "fubini_study", 3, 2),
            jobs.job_eval(lib, rng, "hopf_qobc")]
    assert run_pass(good).failures == []


def test_wrong_values_count_as_failed(lib):
    rng = np.random.default_rng(4)
    wrong = [
        corrupt(jobs.job_scan_family(lib, rng, "rbc"), bump_json(["sup"], 1e-6)),
        corrupt(jobs.job_cone_check(lib, refs.load_stored(), rng, 3, "monotone"),
                bump_json(["cone_min", "value"], -1e-3)),
        corrupt(jobs.job_cone_check(lib, refs.load_stored(), rng, 4, "orthant"),
                bump_json(["cone_min", "value"], 1e-3)),
        corrupt(jobs.job_scan_hopf(lib, rng), bump_json(["inf", "value"], 1e-6)),
        corrupt(jobs.job_eval(lib, rng, "fubini_study_hsc"), bump_json(["value"], 1e-6)),
        corrupt(jobs.job_pipeline(lib, rng, "fubini_study", 2, 2),
                lambda out: out[:-1] + (out[-1] + 1e-6,)),
        corrupt(jobs.job_verify(lib, "identities"),
                lambda out: (3,) + out[1:]),
    ]
    p = run_pass(wrong)
    assert [f["job"] for f in p.failures] == list(range(len(wrong)))


@pytest.mark.parametrize("cone", ["orthant", "generators"])
def test_cone_minimum_at_a_worse_generator_counts_as_failed(lib, cone):
    """A cone minimum that is attained in the cone, but not minimal, fails:
    here the cone generator with the largest Rayleigh quotient."""
    def worst_generator(out):
        code, stdout, stderr = out
        data = json.loads(stdout)
        m, gens = matrix("--matrix="), matrix("--generators=")
        g = refs.cone_generators(cone, len(m), gens)
        worst = max(g, key=lambda v: refs.rayleigh(m, v))
        data["cone_min"]["value"] = refs.rayleigh(m, worst)
        data["cone_min"]["argmin"] = (worst / np.linalg.norm(worst)).tolist()
        return code, json.dumps(data), stderr

    def matrix(prefix):
        text = next((a[len(prefix):] for a in argv if a.startswith(prefix)), None)
        if text is None:
            return None
        return np.array([[float(x) for x in row.split(",")] for row in text.split(";")])

    job = jobs.job_cone_check(lib, refs.load_stored(), np.random.default_rng(6), 3, cone)
    argv = job_argv(job)
    assert run_pass([job]).failures == []
    failures = run_pass([corrupt(job, worst_generator)]).failures
    assert len(failures) == 1 and "above" in failures[0]["error"]


def test_value_gap_gate():
    seed_like = [(0.1, 0.1, 0.01)] * 40 + [(0.0, 0.0, 0.0)] * 10
    gap, expected, allowed = run.value_gap_gate(seed_like)
    assert gap == pytest.approx(expected) and gap < allowed
    gap, _, allowed = run.value_gap_gate([(0.2, 0.1, 0.01)] * 40 + [(0.0, 0.0, 0.0)] * 10)
    assert gap > allowed
    # exact references allow their check tolerance and no more
    gap, _, allowed = run.value_gap_gate([(jobs.TOL / 2, 0.0, 0.0)] * 5)
    assert gap <= allowed
    gap, _, allowed = run.value_gap_gate([(1e-6, 0.0, 0.0)] * 5)
    assert gap > allowed


def test_search_reporting_its_starting_frame_fails_the_value_gap_gate(lib):
    """Random-tensor scans that return the identity frame's bounds pass their
    own check (it only asks for no worse than the start), but their mean
    shortfall is far above the seed commit's."""
    stored = refs.load_stored()
    rng = np.random.default_rng(8)
    scans = [jobs.job_scan_random(lib, stored, rng, n, kind)
             for n in (2, 3) for kind in refs.KINDS for _ in range(2)]
    good = run_pass(scans)
    gap, _, allowed = run.value_gap_gate(good.gaps)
    assert good.failures == [] and gap <= allowed

    def identity_frame(job):
        argv = job_argv(job)
        params = json.loads(argv[argv.index("--tensor-params") + 1])
        kind = argv[argv.index("--functional") + 1]
        lo, hi = refs.fixed_frame_bounds(kind, refs.random_tensor(params["seed"], params["n"]))

        def edit(out):
            code, stdout, stderr = out
            data = json.loads(stdout)
            data["inf"]["value"], data["sup"]["value"] = lo, hi
            return code, json.dumps(data), stderr
        return corrupt(job, edit)

    lazy = run_pass([identity_frame(job) for job in scans])
    gap, _, allowed = run.value_gap_gate(lazy.gaps)
    assert lazy.failures == [] and gap > allowed


def test_raising_job_counts_as_failed():
    def boom():
        raise RuntimeError("boom")
    p = run_pass([jobs.Job("boom", 0, boom, lambda out: [])])
    assert len(p.failures) == 1 and "boom" in p.failures[0]["error"]


def test_tracing_passes_results_through_unchanged(lib):
    import curvlab.cli
    import curvlab.curvature
    import curvlab.errors
    import curvlab.search
    rng = np.random.default_rng(5)
    job_list = [jobs.job_pipeline(lib, rng, "conformal", 3, 4),
                jobs.job_scan_random(lib, refs.load_stored(), rng, 2, "qobc"),
                jobs.job_cone_check(lib, refs.load_stored(), rng, 2, "generators"),
                jobs.job_oracle_batch(lib, rng, 3)]
    plain = run_pass(job_list, fingerprint=True)
    originals = (curvlab.cli.main, curvlab.search.transform_frame, curvlab.cli.COMMANDS["eval"])
    tr = tracer.Tracer()
    with tr:
        assert curvlab.search.transform_frame is not originals[1]
        assert curvlab.search.transform_frame is curvlab.curvature.transform_frame
        spanned = run_pass(job_list, fingerprint=True)
        with pytest.raises(curvlab.errors.UsageError):
            curvlab.metrics.make_metric("no_such_metric")
    assert (curvlab.cli.main, curvlab.search.transform_frame,
            curvlab.cli.COMMANDS["eval"]) == originals
    assert plain.failures == [] and spanned.failures == []
    assert plain.prints == spanned.prints

    summary = tr.summary()
    assert summary["functions"]["curvature.transform_frame"]["calls"] > 0
    assert summary["functions"]["cli.cmd_cone_check"]["calls"] == 1
    # self times partition the time of the outermost spans
    assert sum(summary["layers"].values()) == pytest.approx(summary["root_s"], rel=1e-9)
    assert summary["root_s"] <= sum(spanned.latency)


def test_tracer_parent_links_and_job_ids():
    import curvlab.curvature
    tr = tracer.Tracer()
    with tr:
        tr.current_job = 7
        t = curvlab.curvature.random_tensor(1, 3)
        curvlab.curvature.transform_frame(t, np.eye(3), "full")
    cols = tr.arrays()
    assert set(cols["job"]) == {7}
    names = [tr.names[f] for f in cols["func"]]
    top = names.index("curvature.transform_frame")
    assert cols["parent"][top] == -1
    children = [names[i] for i in np.nonzero(cols["parent"] == top)[0]]
    assert "linalg.unitary_residual" in children
    under = np.nonzero((cols["parent"] == top) | (np.arange(len(names)) == top))[0]
    assert set(cols["dim"][under]) == {3}


@pytest.mark.parametrize("seed", range(6))
def test_exact_cone_minimum_matches_sampling(seed):
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    m = rng.standard_normal((n, n))
    for kind in ("orthant", "monotone"):
        exact = refs.cone_min_exact(m, kind)
        g = refs.cone_generators(kind, n)
        vs = rng.exponential(size=(20000, n)) * (rng.random((20000, n)) < 0.7)
        vs = vs[vs.any(axis=1)] @ g
        sampled = min(refs.rayleigh(m, v) for v in vs)
        assert exact <= sampled + 1e-12
        assert sampled - exact < 0.05 * max(1.0, abs(exact))
    if n == 2:
        assert (refs.cone_min_exact(m, "orthant") >= 0) == refs.copositive_2x2(m)
