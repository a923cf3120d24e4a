"""Golden CLI transcripts: the exact exit code, stdout and stderr of a fixed
corpus of commands, one file per command in tests/golden/.

Each command runs in-process through ``cli.main`` with COLUMNS=80, and its
transcript (the command line, the exit code, stdout, stderr) must equal its
file byte for byte; ``test_golden.py`` checks that in Tier-1.  An edit to a
golden file is an interface change.

    python tests/golden.py            # print the diff against the files; exit 1 if any
    python tests/golden.py --update   # rewrite the files and print the diff
"""

import contextlib
import difflib
import io
import os
import shlex
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> argv; names are file stems
CORPUS = {
    # README's examples
    "readme_eval_fubini_study": ["eval", "--metric", "fubini_study", "--dim", "2", "--point",
                                 "0,0", "--functional", "hsc", "--cvector", "1,0"],
    "readme_eval_hopf": ["eval", "--metric", "hopf", "--point", "1,0", "--functional", "qobc",
                         "--vector", "-0.7071,0.7071", "--use-paper-tensor"],
    "readme_verify_hopf": ["verify", "hopf", "--seed", "1"],
    "readme_verify_cones": ["verify", "cones", "--seed", "42", "--format", "json"],
    "readme_sweep_tricerri": ["sweep", "--metric", "tricerri", "--point", "0,1j", "--grid",
                              "im2=1:2:2", "--use-paper-tensor"],
    "readme_sweep_hopf": ["sweep", "--metric", "hopf", "--point", "1,0", "--grid",
                          "re1=1:1.414:2", "--use-paper-tensor"],
    "readme_frame_scan_hopf": ["frame-scan", "--tensor", "paper_hopf", "--tensor-params",
                               '{"z": [1.0, 1.0]}', "--functional", "qobc", "--convention",
                               "adjoint"],
    "readme_frame_scan_family": ["frame-scan", "--family", "tricerri", "--imw", "1",
                                 "--functional", "rbc"],
    "readme_cone_check": ["cone-check", "--matrix", "0,-1;-1,0", "--samples", "1000",
                          "--format", "json"],
    # a value that prints all twelve significant digits
    "eval_hopf_jet": ["eval", "--metric", "hopf", "--point", "0.3,0.7j", "--functional",
                      "altered_rbc", "--vector", "0.6,0.8"],
    # every suite
    "verify_all_text": ["verify", "all", "--seed", "0"],
    "verify_all_json": ["verify", "all", "--seed", "0", "--format", "json"],
    "verify_all_seed1": ["verify", "all", "--seed", "1"],
    "verify_all_seed2": ["verify", "all", "--seed", "2"],
    "verify_all_json_seed1": ["verify", "all", "--seed", "1", "--format", "json"],
    "verify_all_json_seed2": ["verify", "all", "--seed", "2", "--format", "json"],
    # one scan per dispatch row of search._extremize_kinds
    "frame_scan_invariant": ["frame-scan", "--tensor", "kahler_constant", "--tensor-params",
                             '{"c": -1.5, "n": 3}', "--functional", "altered_rbc", "--cone",
                             "orthant", "--format", "json"],
    "frame_scan_searched": ["frame-scan", "--tensor", "random", "--tensor-params",
                            '{"n": 3, "seed": 2}', "--functional", "altered_qobc", "--cone",
                            "monotone", "--restarts", "2", "--refine-steps", "3",
                            "--format", "json"],
    "frame_scan_exact": ["frame-scan", "--tensor", "random", "--tensor-params",
                         '{"n": 3, "seed": 1}', "--functional", "qobc", "--format", "json"],
    # searched scans whose sweeps (2 n^2 moves) span several of the search's chunks
    **{f"frame_scan_searched_n{n}_{cone}_{convention}": [
        "frame-scan", "--tensor", "random", "--tensor-params", f'{{"n": {n}, "seed": {seed}}}',
        "--functional", kind, "--cone", cone, "--convention", convention,
        "--restarts", str(restarts), "--refine-steps", str(refine), "--format", "json"]
       for n, seed, cone, convention, kind, restarts, refine in [
           (4, 3, "orthant", "full", "qobc", 2, 2),
           (4, 3, "monotone", "full", "qobc", 2, 2),
           (4, 3, "orthant", "adjoint", "altered_rbc", 2, 2),
           (4, 3, "monotone", "adjoint", "altered_rbc", 2, 2),
           (6, 4, "orthant", "full", "qobc", 1, 1),
           (6, 4, "monotone", "adjoint", "altered_rbc", 1, 1),
           (8, 5, "full", "adjoint", "altered_qobc", 2, 1)]},
    "sweep_fubini_study_adjoint": ["sweep", "--metric", "fubini_study", "--dim", "2", "--point",
                                   "0.1,0.2j", "--grid", "re1=0:0.5:3", "--restarts", "2",
                                   "--refine-steps", "3"],
    # one message per error class
    "usage_error": ["frame-scan", "--tensor", "random", "--tensor-params", '{"n": 2}',
                    "--functional", "bogus"],
    "domain_error": ["frame-scan", "--tensor", "paper_hopf", "--tensor-params",
                     '{"z": [1e60, 0]}', "--functional", "rbc"],
}


def transcript(argv):
    """The command line, exit code, stdout and stderr of one in-process run."""
    from curvlab.cli import main
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return (f"$ curvlab {shlex.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def path(name):
    return GOLDEN / f"{name}.txt"


def diff(name, text):
    """Unified diff from the stored file of name to text, empty if equal."""
    stored = path(name).read_text() if path(name).exists() else ""
    return "".join(difflib.unified_diff(stored.splitlines(True), text.splitlines(True),
                                        f"golden/{name}.txt", f"{name} (now)"))


def main(argv):
    update = argv == ["--update"]
    if argv and not update:
        sys.exit(__doc__)
    changed = False
    for name, command in CORPUS.items():
        text = transcript(command)
        delta = diff(name, text)
        if delta:
            changed = True
            sys.stdout.write(delta)
        if update:
            GOLDEN.mkdir(exist_ok=True)
            path(name).write_text(text)
    return 1 if changed and not update else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
