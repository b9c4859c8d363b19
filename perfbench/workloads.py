"""The benchmark's three workloads: seeded inputs, set-up, and job cycles.

Each workload draws its inputs from a finite pool of numbered variants, so
that every job's answer can be pinned once in ``pins.json`` and checked on
every run.  ``--seed`` picks where in the pool a run starts.  A workload is
an object with ``setup(seed, workdir, whole_pool)``, which returns the set-up
state, and ``cycle(state, i)``, which returns the i-th list of jobs; with
``whole_pool`` set, cycles 0 .. ``pool_cycles - 1`` cover every variant once.
A run always executes whole cycles, so each cycle's mix of jobs is the
run's mix.

Every call into the package goes through a module attribute
(``engine.greedy_rainbow``, not a name imported here), so the traced run can
wrap it by patching that attribute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
from fractions import Fraction

from rainbowsets import algebra, cli, engine, geometry, hypergraph

import check
from check import Job, JobFailed, Refused

derive_seed = engine.derive_seed


def _window(seed: int, pool: int, size: int, whole_pool: bool) -> list[int]:
    """``size`` consecutive pool variants from a seed-chosen start, wrapping."""
    if whole_pool:
        return list(range(pool))
    start = derive_seed(seed, 0) % pool
    return [(start + i) % pool for i in range(size)]


def _rainbow_read(items, colour, k, answer=None):
    """Read a RainbowResult: pin its subset (or ``answer(subset)``), recheck it."""

    def read(result):
        if not result.verified:
            raise JobFailed("result has verified=False")
        subset = list(result.subset)
        pinned = subset if answer is None else answer(subset)
        return pinned, ([items[v] for v in subset], colour, k), 0

    return read


def _audit_read(result):
    ok, report = result
    return [ok, report.petals], None, 0


# --------------------------------------------------------------- fixture-mix


def _random_sympoly(rng: random.Random, degree: int) -> dict:
    """Symmetric coefficients in [-3, 3] with a nonzero top-degree part."""
    coeffs = {}
    for i in range(degree + 1):
        for j in range(i, degree + 1 - i):
            c = rng.randint(-3, 3)
            coeffs[(i, j)] = coeffs[(j, i)] = c
    if all(c == 0 for (i, j), c in coeffs.items() if i + j == degree):
        coeffs[(degree, 0)] = coeffs[(0, degree)] = 1
    return coeffs


class FixtureMix:
    """The acceptance fixture's instance recipe over a pool of 60 fixture seeds.

    Each fixture seed s gives points in the plane (n = 5..9) under the
    circumradius, volume and similarity colourings, a Sidon colouring of
    random integers (n = 6..12), a prepared random symmetric polynomial over
    Q or GF(p), and the parabola points (x, x^2), x = 1..n (n = 10..14), under
    the volume colouring.  Each instance runs seeded greedy, default
    sample-and-delete, the exact oracle and the sunflower audit.  One cycle
    is a block of five consecutive seeds starting at a multiple of 5, so
    every cycle holds each point-set and parabola size once.

    A run sets up a window of 30 seeds (6 blocks) that ``--seed`` picks from
    the 12 windows of the pool.  The pool is twice the window: ten seeds
    still reach different inputs, while any two windows share half their
    blocks on average, which keeps the cost of a run's mix from depending
    much on the seed.
    """

    name = "fixture-mix"
    BLOCK = 5
    POOL = 60
    WINDOW = 30
    BIG_POINTS = 16
    pool_cycles = POOL // BLOCK

    def setup(self, seed: int, workdir: str, whole_pool: bool = False):
        parabolas = {}
        for n in range(10, 15):
            points = tuple((x, x * x) for x in range(1, n + 1))
            inst = geometry.PointInstance(dim=2, points=tuple(geometry.as_point(p) for p in points))
            parabolas[n] = inst.validate(sphere=False)
        window = _window(seed, self.POOL // self.BLOCK, self.WINDOW // self.BLOCK, whole_pool)
        window = [block * self.BLOCK + j for block in window for j in range(self.BLOCK)]
        fixtures = {s: self._fixture(s, parabolas) for s in window}

        # one larger point set, round-tripped through a file as the CLI would
        big = geometry.generate_general_position(self.BIG_POINTS, 2, derive_seed(seed, 1))
        path = os.path.join(workdir, "points.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(geometry.points_to_obj(big), fh)
        with open(path, encoding="utf-8") as fh:
            geometry.points_from_obj(json.load(fh)).validate()
        return window, fixtures

    @staticmethod
    def _fixture(s: int, parabolas) -> list:
        """(label, module, factory name, factory argument, items, own colour, k) per instance."""
        out = []
        pts = geometry.generate_general_position(5 + s % 5, 2, seed=1000 + s)
        out.append(("circumradius", geometry, "circumradius_colouring", pts, pts.points,
                    check.circumradius, 3))
        out.append(("volume", geometry, "volume_colouring", pts, pts.points, check.volume, 3))
        out.append(("similarity", geometry, "similarity_colouring", pts, pts.points,
                    check.similarity, 3))

        rng = random.Random(2000 + s)
        n = 6 + s % 7
        values = tuple(sorted(rng.sample(range(1, 20 * n), n)))
        out.append(("sidon", algebra, "sidon_colouring", algebra.IntegerInstance(values=values),
                    values, check.sidon, 2))

        rng = random.Random(s)
        degree = 1 + s % 4
        field = "Q" if s % 2 == 0 else (5, 7, 11, 13)[s % 4]
        coeffs = _random_sympoly(rng, degree)
        poly = algebra.SymPoly(field, coeffs)
        n = 6 + s % 7
        attempt = 0
        while True:
            sub = random.Random(derive_seed(s, attempt))
            if field == "Q":
                values = sub.sample(range(-3 * n, 3 * n + 1), n)
            else:
                values = sub.sample(range(field), min(n, field))
            prepared = algebra.poly_prepare(poly, values)
            if len(prepared.kept) >= 3:
                break
            attempt += 1
        out.append(("poly", algebra, "poly_colouring", prepared, prepared.kept,
                    check.poly(field, coeffs), 2))

        n = 10 + s % 5
        out.append(("parabola", geometry, "volume_colouring", parabolas[n],
                    parabolas[n].points, check.volume, 3))
        return out

    def cycle(self, state, i: int) -> list[Job]:
        window, fixtures = state
        start = i * self.BLOCK % len(window)
        jobs = []
        for s in window[start:start + self.BLOCK]:
            jobs += self._jobs(s, fixtures[s])
        return jobs

    def _jobs(self, s: int, fixture) -> list[Job]:
        jobs = []
        for label, module, factory, arg, items, colour, k in fixture:
            # a fresh instance object per cycle, so nothing cached on one carries over
            colouring = getattr(module, factory)(dataclasses.replace(arg))
            ground = hypergraph.GroundSet(len(items))
            spec = colouring.spec
            plan = engine.SamplePlan.from_spec(ground.n, spec.k, spec.h, seed=derive_seed(8, s))
            read = _rainbow_read(items, colour, k)
            key = f"{self.name}/s{s}/{label}"
            jobs += [
                Job(f"{key}/greedy", lambda c=colouring, g=ground: engine.greedy_rainbow(
                    c, g, order=derive_seed(7, s)), read),
                Job(f"{key}/sample-delete", lambda c=colouring, g=ground, p=plan:
                    engine.sample_and_delete(c, g, p), read),
                Job(f"{key}/exact", lambda c=colouring, g=ground: engine.exact_max_rainbow(c, g),
                    read),
                Job(f"{key}/audit", lambda c=colouring, g=ground: hypergraph.validate_lambda(c, g),
                    _audit_read),
            ]
        return jobs


# -------------------------------------------------------------- sidon-greedy


class SidonGreedy:
    """Greedy on the Sidon colouring of 1..N with pooled shuffled orders.

    Each cycle runs three jobs at N = 30 000 and one at N = 100 000, so the
    median job is a small one and the 90th percentile a large one.
    """

    name = "sidon-greedy"
    POOL = 512
    SIZES = (30_000, 30_000, 30_000, 100_000)
    ORDER_SEED = 20_151_505
    pool_cycles = POOL // len(SIZES)

    def setup(self, seed: int, workdir: str, whole_pool: bool = False):
        instances = {n: algebra.IntegerInstance(values=tuple(range(1, n + 1)))
                     for n in set(self.SIZES)}
        start = 0 if whole_pool else derive_seed(seed, 0) % self.pool_cycles * len(self.SIZES)
        return start, instances

    def cycle(self, state, i: int) -> list[Job]:
        start, instances = state
        jobs = []
        for j in range(len(self.SIZES)):
            v = (start + i * len(self.SIZES) + j) % self.POOL
            n = self.SIZES[v % len(self.SIZES)]
            inst = instances[n]
            order = derive_seed(self.ORDER_SEED, v)

            def call(inst=inst, n=n, order=order):
                colouring = algebra.sidon_colouring(inst)
                return engine.greedy_rainbow(colouring, hypergraph.GroundSet(n), order=order)

            read = _rainbow_read(inst.values, check.sidon, 2,
                                 answer=lambda subset: f"{len(subset)}:{check.digest(subset)}")
            jobs.append(Job(f"{self.name}/v{v}/n{n}", call, read))
        return jobs


# ------------------------------------------------------------- cli-conflicts


POLY_Q = {"type": "sympoly", "field": "Q", "degree": 2,
          "coeffs": [[2, 0, "1"], [1, 1, "-1/2"], [0, 2, "1"]]}
POLY_GF = {"type": "sympoly", "field": {"GF": 101}, "degree": 3,
           "coeffs": [[2, 1, "1"], [1, 2, "1"], [1, 0, "1"], [0, 1, "1"]]}


def _coeffs(obj) -> dict:
    coeffs = {}
    for i, j, c in obj["coeffs"]:
        coeffs[(i, j)] = coeffs[(j, i)] = c
    return coeffs


def _quiet_main(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


class CliConflicts:
    """In-process ``rainbowsets`` commands on conflict-heavy integer instances.

    One cycle is one pool variant v: sample-delete ``find`` on Sidon 1..N for
    N = 60, 90, 120 and the pinned N = 100, seed 1 run; sample-delete on a
    polynomial over Q and one over GF(101), each on one file of random
    integers; ``oracle`` on Sidon 1..N for N = 24, 26; ``audit`` of the six
    sample-delete instances and of Sidon 1..26; and one sample-delete at
    N = 1000, which the budget rule refuses today (exit 3).  Only the
    sample-delete seeds depend on v, so every cycle costs about the same.  Of
    the 16 jobs of a cycle, 7 are cheaper than the two jobs over Q and 7 dearer,
    so the median falls in the middle of those two, well apart in cost from
    their neighbours; the 90th percentile falls inside the pinned N = 100 run.
    """

    name = "cli-conflicts"
    POOL = 32
    WINDOW = 16
    RANGES = (24, 26, 60, 90, 100, 120, 1000)
    SAMPLE_DELETE = (60, 90, 120)
    ORACLE = (24, 26)
    REFUSED = 1000
    POLY_SIZES = {"Q": (60, 400), "GF": (40, 100)}  # --n, --max-value
    POLY_VALUES_SEED = 5
    ROADMAP_PIN = ["14", "36", "92"]  # sample-delete on 1..100, seed 1: vertex ids 13, 35, 91
    pool_cycles = POOL

    def setup(self, seed: int, workdir: str, whole_pool: bool = False):
        def path(name):
            return os.path.join(workdir, name)

        for n in self.RANGES:
            self._generate(["integers-range", "--n", str(n), "--out", path(f"range{n}.json")])
        polys = {"Q": POLY_Q, "GF": POLY_GF}
        for tag, obj in polys.items():
            with open(path(f"poly{tag}.json"), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        for tag, obj in polys.items():
            n, max_value = self.POLY_SIZES[tag]
            out = path(f"rand{tag}.json")
            self._generate(["integers-random", "--n", str(n), "--max-value", str(max_value),
                            "--seed", str(self.POLY_VALUES_SEED), "--out", out])
            with open(out, encoding="utf-8") as fh:
                values = algebra.integers_from_obj(json.load(fh)).values
            prepared = algebra.poly_prepare(algebra.sympoly_from_obj(obj), values)
            if len(prepared.kept) < 3:
                raise RuntimeError(f"{out}: fewer than 3 values survive preparation")
        return workdir, _window(seed, self.POOL, self.WINDOW, whole_pool)

    @staticmethod
    def _generate(argv):
        code = _quiet_main(["generate", *argv])
        if code != 0:
            raise RuntimeError(f"rainbowsets generate {' '.join(argv)} exited {code}")

    def cycle(self, state, i: int) -> list[Job]:
        workdir, window = state
        v = window[i % len(window)]
        seed = str(derive_seed(v, 6))
        jobs = []

        def add(key, argv, read, **kw):
            out = os.path.join(workdir, f"out{len(jobs)}.json")
            jobs.append(Job(f"{self.name}/{key}", lambda: _quiet_main([*argv, "--out", out]),
                            read(out), **kw))

        def instance(name):
            return ["--instance", os.path.join(workdir, name)]

        sidon = ["--colouring", "sidon"]
        for n in self.SAMPLE_DELETE:
            add(f"v{v}/find-sd-sidon{n}",
                ["find", *instance(f"range{n}.json"), *sidon, "--algorithm", "sample-delete",
                 "--seed", seed], _find_read(int, check.sidon))
        add("find-sd-sidon100-seed1",
            ["find", *instance("range100.json"), *sidon, "--algorithm", "sample-delete",
             "--seed", "1"], _find_read(int, check.sidon))
        for tag, obj in (("Q", POLY_Q), ("GF", POLY_GF)):
            field = "Q" if tag == "Q" else obj["field"]["GF"]
            poly = ["--colouring", "poly", "--poly", os.path.join(workdir, f"poly{tag}.json")]
            add(f"v{v}/find-sd-poly{tag}",
                ["find", *instance(f"rand{tag}.json"), *poly, "--algorithm", "sample-delete",
                 "--seed", seed], _find_read(_field_parser(field), check.poly(field, _coeffs(obj))))
            add(f"audit-poly{tag}", ["audit", *instance(f"rand{tag}.json"), *poly],
                _cli_audit_read)
        for n in (*self.SAMPLE_DELETE, 100, self.ORACLE[-1]):
            add(f"audit-sidon{n}", ["audit", *instance(f"range{n}.json"), *sidon], _cli_audit_read)
        for n in self.ORACLE:
            add(f"oracle-sidon{n}", ["oracle", *instance(f"range{n}.json"), *sidon,
                                     "--limit", str(n)], _find_read(int, check.sidon))
        add(f"v{v}/find-sd-sidon{self.REFUSED}",
            ["find", *instance(f"range{self.REFUSED}.json"), *sidon, "--algorithm",
             "sample-delete", "--seed", seed], _find_read(int, check.sidon), refusable=True)
        return jobs


def _field_parser(field):
    return Fraction if field == "Q" else int


def _take(out: str) -> tuple[bytes, int]:
    """Read a result file, count what the command wrote, and remove both files.

    Removing them means a later command that writes nothing cannot pass on a
    stale file.
    """
    manifest = out + ".manifest.json"
    try:
        with open(out, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise JobFailed("exited 0 without writing its result file") from None
    written = len(data)
    os.remove(out)
    if os.path.exists(manifest):
        written += os.path.getsize(manifest)
        os.remove(manifest)
    return data, written


def _find_read(parse, colour):
    def reader(out):
        def read(code):
            if code == 3:
                raise Refused("exit 3 (budget refusal)")
            if code != 0:
                raise JobFailed(f"exit {code}")
            data, written = _take(out)
            obj = json.loads(data)
            if obj["verified"] is not True:
                raise JobFailed("result file has verified=false")
            answer = {"subset": obj["subset"], "sha256": check.digest(data)}
            return answer, ([parse(x) for x in obj["subset"]], colour, 2), written

        return read

    return reader


def _cli_audit_read(out):
    def read(code):
        if code != 0:
            raise JobFailed(f"exit {code}")
        data, written = _take(out)
        obj = json.loads(data)
        return {"pass": obj["pass"], "petals": obj["petals"],
                "sha256": check.digest(data)}, None, written

    return read


WORKLOADS = {w.name: w for w in (FixtureMix(), SidonGreedy(), CliConflicts())}
