"""Mutation check: every mutant in ``MUTANTS`` must make its named tests fail.

Usage: python3 tools/mutants.py [NAME ...]   (no names: every mutant)

Each mutant is one exact text edit of a file under ``src/rainbowsets``.  For
each, the script copies ``src/`` to a temporary directory, applies the edit,
which must match exactly once (otherwise the mutant is stale: its code has
moved on), and runs the mutant's tests with ``PYTHONPATH`` set to the copy,
from a scratch working directory so that no hypothesis database or cache is
left in the repository.  The mutant is killed only when pytest exits 1,
meaning tests failed; 0 means it survived, and any other code (an
interrupted run, a usage or collection error) or a timeout is reported too.
Hypothesis runs with a fixed seed, so a run is reproducible.  The script
exits 1 if any mutant survives, is stale, or is not killed cleanly.

Standard library only; it lives outside ``tests/``, so pytest does not
collect it.  Each mutant names the tests that should catch it, which pass
on the unmutated tree (Tier-1 checks that): a survivor means those tests
have a gap, and the fix is a test that kills it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    path: str  # under src/rainbowsets
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids under tests/


ORACLE = ("test_engine.py::test_exact_matches_the_reference_search",)
KERNEL_KEYS = ("test_geometry.py::test_kernel_keys_match_the_definitions",)
DET = ("test_geometry.py::test_det_exact_matches_the_leibniz_oracle",)

MUTANTS = [
    # the exact oracle's loop (search layer)
    Mutant("oracle-budget-ge", "engine.py",
           "if nodes > budget:", "if nodes >= budget:", ORACLE),
    Mutant("oracle-run-one-short", "engine.py",
           "nodes += i - start + 1", "nodes += i - start", ORACLE),
    Mutant("oracle-leaf-ge", "engine.py",
           "if lead > n:", "if lead >= n:", ORACLE),
    Mutant("oracle-stop-one-short", "engine.py",
           "stop = lead if lead < n else n", "stop = lead - 1 if lead < n else n", ORACLE),
    Mutant("oracle-lead-kept-on-pop", "engine.py",
           "i, lead = chosen.pop() + 1, lead - 1", "i, lead = chosen.pop() + 1, lead", ORACLE),
    Mutant("oracle-reversed-tie-break", "engine.py",
           "key=lambda v: (-degrees[v], v))", "key=lambda v: (-degrees[v], -v))", ORACLE),
    # the geometric kernels and the determinant (colour kernel layer)
    Mutant("volume-over-2^(d-1)", "geometry.py",
           "denominator = 2 ** inst.dim * (", "denominator = 2 ** (inst.dim - 1) * (",
           KERNEL_KEYS),
    Mutant("similarity-over-its-sum", "geometry.py",
           "total = 2 * sum(least)", "total = sum(least)", KERNEL_KEYS),
    Mutant("plane-similarity-over-its-sum", "geometry.py",
           "total = 2 * (s1 + s2 + s3)", "total = s1 + s2 + s3", KERNEL_KEYS),
    Mutant("circumradius-without-factor-2", "geometry.py",
           "ratio_key(2 * abs(det_exact(", "ratio_key(abs(det_exact(", KERNEL_KEYS),
    Mutant("det-off-by-one-above-4x4", "geometry.py",
           "    return int(det)\n", "    return int(det) + (n > 4)\n", DET + KERNEL_KEYS),
    Mutant("det-swap-keeps-sign", "geometry.py",
           "            det = -det\n", "", DET),
    Mutant("circumradius-skips-sphere-check", "geometry.py",
           "    _require_general_position(inst, True, budget)\n",
           "    _require_general_position(inst, False, budget)\n",
           ("test_geometry.py::test_parabola_points_are_concyclic_exactly_when_their_parameters"
            "_sum_to_zero",)),
    Mutant("ratio-key-unreduced", "keys.py",
           "b\"%d/%d\" % (numerator // g, denominator // g)",
           "b\"%d/%d\" % (numerator, denominator)",
           ("test_hypergraph.py::test_ratio_key_is_the_key_of_the_fraction",)),
    Mutant("sidon-signed-difference", "algebra.py",
           "return abs(values[ids[1]] - values[ids[0]])", "return values[ids[0]] - values[ids[1]]",
           ("test_algebra.py::test_colours_match_the_evaluator",)),
    # colour classes and conflict pairs (index layer)
    Mutant("pair-degree-one-off", "hypergraph.py",
           "math.comb(m, 2) - math.comb(m - d, 2)", "math.comb(m, 2) - math.comb(m - d + 1, 2)",
           ("test_hypergraph.py::test_conflict_degrees_match_pair_enumeration",)),
    Mutant("audit-h-fixed-at-1", "hypergraph.py",
           "cores = Counter(chain.from_iterable(edges if h == 1",
           "cores = Counter(chain.from_iterable(edges if True",
           ("test_hypergraph.py::test_sunflower_matches_brute_force",)),
    # greedy and sample-and-delete (search layer)
    Mutant("greedy-ignores-own-clash", "hypergraph.py",
           "if key in used or key in keys:", "if key in used:",
           ("test_engine.py::test_greedy_maximality",
            "test_engine.py::test_all_algorithms_verify_on_random_instances")),
    Mutant("sample-delete-last-victim", "engine.py",
           "victim = degrees.index(max(degrees))",
           "victim = len(degrees) - 1 - degrees[::-1].index(max(degrees))",
           ("test_engine.py::test_sample_matches_full_enumeration_reference",)),
    # verification
    Mutant("verify-allows-one-clash", "engine.py",
           "return len(require_keys(set(colouring.colours(s)))) == edges",
           "return len(require_keys(set(colouring.colours(s)))) >= edges - 1",
           ("test_engine.py::test_verify_sidon_examples",)),
    Mutant("require-keys-lets-floats-through", "keys.py",
           "if not {int, bytes}.issuperset(", "if not {int, bytes, float}.issuperset(",
           ("test_engine.py::test_each_pass_refuses_raw_colours_with_the_key_check",)),
    # the CLI and its files
    Mutant("cli-limit-unchecked", "cli.py",
           "    if algorithm == \"exact\" and args.limit is not None:",
           "    if False:",
           ("test_cli.py::test_oracle_limit_comes_before_k_above_n",)),
    Mutant("cli-audit-fail-exits-0", "cli.py",
           "    return 0 if ok else 2\n", "    return 0\n",
           ("test_cli.py::test_audit_fail_exit2",)),
    Mutant("cli-find-unverified-exits-0", "cli.py",
           "    return 0 if result.verified else 1\n", "    return 0\n",
           ("test_cli.py::test_find_unverified_result_exit1",)),
    Mutant("cli-subset-as-ids", "cli.py",
           "\"subset\": [labels[v] for v in result.subset],",
           "\"subset\": list(result.subset),",
           ("test_cli.py::test_result_files_are_pinned",)),
]


def apply(mutant: Mutant, src: Path) -> bool:
    """Apply the edit to the copy; False when the old text is not there exactly once."""
    target = src / "rainbowsets" / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def run(mutant: Mutant) -> str:
    """The mutant's outcome: "killed", "stale", "survived", "timeout" or "pytest exit N"."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not apply(mutant, src):
            return "stale"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = "import rainbowsets; print(rainbowsets.__file__)"
        probe = subprocess.run([sys.executable, "-c", where], env=env, cwd=tmp,
                               capture_output=True, text=True, timeout=60)
        if not probe.stdout.startswith(str(src)):  # an installed copy would shadow the mutant
            sys.exit(f"the copy is not the package imported: {probe.stdout or probe.stderr}")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *(str(ROOT / "tests" / test) for test in mutant.tests)]
        try:
            done = subprocess.run(argv, env=env, cwd=tmp, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
    return {0: "survived", 1: "killed"}.get(done.returncode, f"pytest exit {done.returncode}")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    failed = []
    t0 = time.perf_counter()
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        outcome = run(mutant)
        print(f"{outcome:>10}  {mutant.name}  ({time.perf_counter() - start:.1f} s)", flush=True)
        if outcome != "killed":
            failed.append(mutant.name)
    print(f"{len(failed)} not killed, in {time.perf_counter() - t0:.0f} s"
          + (": " + ", ".join(failed) if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
