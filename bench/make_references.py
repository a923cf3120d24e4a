"""Regenerate ``references.json`` at the current commit.

It holds two tables, both computed at the seed commit:

* ``full`` and ``restricted``: the best frame-search extrema found with a
  large search budget, for the fixed pool of random tensors the workloads
  draw from.  They are the references of the searches' shortfalls.
* ``expected``: the mean and variance of the shortfall the seed commit shows
  on each kind of job that the workloads run, at the workloads' own budget:
  per tensor and functional over the search seeds ``range(SEARCH_SEEDS)``,
  and per cone and dimension over ``CONE_MATRICES`` random cone-check
  matrices, run through the command line at its default grid resolution.  The runner fails a run whose mean shortfall exceeds what these
  predict (see ``run.value_gap_gate``), so that a faster search that finds
  worse optima does not pass.

Rerunning this at a later commit measures that commit, not the seed.  It
takes about twenty minutes on two cores.

    python3 bench/make_references.py
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from curvlab.cones import make_cone                      # noqa: E402
from curvlab.curvature import random_tensor              # noqa: E402
from curvlab.search import SearchConfig, extremize       # noqa: E402
import jobs                                              # noqa: E402
import refs                                              # noqa: E402

# tensor seeds per dimension, and the search budget per dimension
FULL_POOL = {2: range(8), 3: range(6), 4: range(4)}
FULL_BUDGET = {2: (8, 30), 3: (8, 30), 4: (6, 20)}
RESTRICTED_POOL = {2: range(4), 3: range(4)}
RESTRICTED_CONES = ("orthant", "monotone")
RESTRICTED_BUDGET = (4, 10)
# random matrices per cone and dimension for the cone-check shortfall
CONE_MATRICES = {2: 200, 3: 200, 4: 120, 5: 80, 6: 40}


def search(tensor, kind, cone, budget, seed=0):
    restarts, refine = budget
    lo, hi = extremize(tensor, kind, cone=make_cone(cone, tensor.n),
                       cfg=SearchConfig(restarts=restarts, refine_steps=refine, seed=seed))
    return lo.value, hi.value


def moments(xs):
    return [float(np.mean(xs)), float(np.var(xs))]


def expected_scan(tensor, kind, cone, budget, ref):
    """Mean and variance of the inf and sup shortfall over the search seeds."""
    found = [search(tensor, kind, cone, budget, s) for s in range(jobs.SEARCH_SEEDS)]
    return {"inf": moments([refs.shortfall(lo, ref[0], "inf") for lo, _ in found]),
            "sup": moments([refs.shortfall(hi, ref[1], "sup") for _, hi in found])}


def expected_cone_check(lib, cone, n, count, rng):
    """Mean and variance of the CLI's cone minimum's shortfall against the
    exact minimum, over matrices drawn the way the cone-check jobs draw them.
    Also reports the largest excess over the cone's best generator."""
    gaps, over_generator = [], -np.inf
    for _ in range(count):
        m, gens = jobs.cone_check_input(rng, n, cone)
        code, out, err = lib.main(jobs.cone_check_argv(m, cone, gens, 100, 0))
        if code != 0:
            raise RuntimeError(f"cone-check exited {code}: {err}")
        value = json.loads(out)["cone_min"]["value"]
        gaps.append(refs.shortfall(value, refs.cone_min_exact(m, cone, gens), "inf"))
        best = min(refs.rayleigh(m, g) for g in refs.cone_generators(cone, n, gens) if np.any(g))
        over_generator = max(over_generator, (value - best) / max(1.0, abs(best)))
    print(f"cone_check {cone} n={n}: largest shortfall {max(gaps):.3g}, "
          f"largest excess over the best generator {over_generator:.3g}", flush=True)
    return moments(gaps)


def main():
    t0 = time.perf_counter()
    out = {"budget": {"full": {str(n): list(b) for n, b in FULL_BUDGET.items()},
                      "restricted": list(RESTRICTED_BUDGET)},
           "full": {}, "restricted": {},
           "expected": {"search_seeds": jobs.SEARCH_SEEDS, "full": {}, "restricted": {},
                        "cone_check": {}}}
    for n, seeds in FULL_POOL.items():
        for seed in seeds:
            t, key = random_tensor(seed, n), f"{n}/{seed}"
            out["full"][key] = {k: list(search(t, k, "full", FULL_BUDGET[n]))
                                for k in refs.KINDS}
            out["expected"]["full"][key] = {
                k: expected_scan(t, k, "full", jobs.SCAN_BUDGET[n], out["full"][key][k])
                for k in refs.KINDS}
            print(f"full n={n} seed={seed} {time.perf_counter() - t0:.0f}s", flush=True)
    for n, seeds in RESTRICTED_POOL.items():
        for seed in seeds:
            t = random_tensor(seed, n)
            for cone in RESTRICTED_CONES:
                key = f"{n}/{seed}/{cone}"
                out["restricted"][key] = {k: list(search(t, k, cone, RESTRICTED_BUDGET))
                                          for k in jobs.RESTRICTED_KINDS}
                out["expected"]["restricted"][key] = {
                    k: expected_scan(t, k, cone, jobs.RESTRICTED_BUDGET,
                                     out["restricted"][key][k])
                    for k in jobs.RESTRICTED_KINDS}
            print(f"restricted n={n} seed={seed} {time.perf_counter() - t0:.0f}s", flush=True)
    lib = jobs.Library()
    for n, count in CONE_MATRICES.items():
        for i, cone in enumerate(("orthant", "monotone", "generators")):
            out["expected"]["cone_check"][f"{cone}/{n}"] = expected_cone_check(
                lib, cone, n, count, np.random.default_rng([n, i]))
    (HERE / "references.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
