import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import is_sidon, spiral_coords
import rainbowsets
from rainbowsets import cli
from rainbowsets.algebra import IntegerInstance, integers_to_obj
from rainbowsets.engine import BENCH_CSV_HEADER, exact_max_rainbow
from rainbowsets.geometry import PointInstance, points_from_obj, points_to_obj
from rainbowsets.hypergraph import GroundSet


def run(*argv):
    return cli.main(list(argv))


def write_collinear_instance(path):
    inst = PointInstance(dim=2, points=(
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(2)),
        (Fraction(4), Fraction(1)),
    ))
    path.write_text(json.dumps(points_to_obj(inst)) + "\n")


# ----------------------------------------------------------- generate


def test_generate_integers_range(tmp_path):
    out = tmp_path / "ints.json"
    assert run("generate", "integers-range", "--n", "100", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["values"] == [str(v) for v in range(1, 101)]
    manifest = json.loads((tmp_path / "ints.json.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["params"]["n"] == 100


def test_generate_points_passes_validators(tmp_path):
    out = tmp_path / "pts.json"
    assert run("generate", "points", "--n", "10", "--d", "2", "--seed", "7",
               "--out", str(out)) == 0
    inst = points_from_obj(json.loads(out.read_text()))
    assert len(inst) == 10
    validated = inst.validate()
    assert validated.no_hyperplane and validated.no_sphere


def test_generate_points_tiny_bound_resource_error(tmp_path, capsys):
    out = tmp_path / "pts.json"
    code = run("generate", "points", "--n", "10", "--d", "2", "--seed", "1",
               "--coord-bound", "1", "--out", str(out))
    assert code == 3
    assert "coord_bound" in capsys.readouterr().err


def test_generate_integers_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("generate", "integers-random", "--n", "20", "--seed", "5", "--out", str(a)) == 0
    assert run("generate", "integers-random", "--n", "20", "--seed", "5", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    values = [int(v) for v in json.loads(a.read_text())["values"]]
    assert values == sorted(values)
    assert len(set(values)) == 20


def test_generate_roundtrip_byte_identical(tmp_path):
    out = tmp_path / "pts.json"
    run("generate", "points", "--n", "6", "--d", "2", "--seed", "3", "--out", str(out))
    raw = out.read_text()
    reparsed = points_from_obj(json.loads(raw))
    assert json.dumps(points_to_obj(reparsed), separators=(",", ":")) + "\n" == raw


def test_generate_usage_error():
    assert run("generate", "nonsense", "--n", "5", "--out", "x.json") == 2


# --------------------------------------------------------------- find


def test_find_sidon_greedy(tmp_path, capsys):
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "50", "--out", str(inst))
    out = tmp_path / "result.json"
    code = run("find", "--instance", str(inst), "--colouring", "sidon",
               "--algorithm", "greedy", "--seed", "1", "--out", str(out))
    assert code == 0
    result = json.loads(out.read_text())
    assert result["verified"] is True
    assert result["algorithm"] == "greedy"
    values = [int(v) for v in result["subset"]]
    assert is_sidon(values)
    assert result["size"] == len(values)
    assert "runtime" not in json.dumps(result)
    err = capsys.readouterr().err
    assert "rainbow size=" in err


def test_find_exact_points_reports_optimum(tmp_path):
    inst_path = tmp_path / "pts.json"
    run("generate", "points", "--n", "7", "--d", "2", "--seed", "11", "--out", str(inst_path))
    out = tmp_path / "res.json"
    code = run("find", "--instance", str(inst_path), "--colouring", "circumradius",
               "--algorithm", "exact", "--out", str(out))
    assert code == 0
    result = json.loads(out.read_text())

    from rainbowsets.geometry import circumradius_colouring

    inst = points_from_obj(json.loads(inst_path.read_text())).validate()
    oracle = exact_max_rainbow(circumradius_colouring(inst), GroundSet(7))
    assert result["size"] == oracle.size


def test_find_collinear_points_volume_exit2(tmp_path, capsys):
    inst = tmp_path / "bad.json"
    write_collinear_instance(inst)
    code = run("find", "--instance", str(inst), "--colouring", "volume",
               "--algorithm", "greedy", "--out", str(tmp_path / "r.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert "hyperplane" in err  # the violating subset is printed
    assert "0" in err and "2" in err


def test_find_budget_exit3(tmp_path):
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "60", "--out", str(inst))
    code = run("find", "--instance", str(inst), "--colouring", "sidon",
               "--algorithm", "sample-delete", "--seed", "2",
               "--budget", "100", "--out", str(tmp_path / "r.json"))
    assert code == 3


def test_find_sample_delete_sidon_1000(tmp_path):
    # C(1000, 3) same-coloured pairs exist; only those inside the kept set
    # are enumerated, so the default budget suffices
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "1000", "--out", str(inst))
    out = tmp_path / "r.json"
    code = run("find", "--instance", str(inst), "--colouring", "sidon",
               "--algorithm", "sample-delete", "--seed", "1", "--out", str(out))
    assert code == 0
    result = json.loads(out.read_text())
    assert result["verified"] is True
    assert result["stats"]["pairs_total"] == 166167000
    assert is_sidon([int(v) for v in result["subset"]])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ec7fde40b1516d746ca7a4316da15b459a960302c06c84e0fb1771d46859c33e")


def test_find_poly_needs_poly_file(tmp_path):
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "20", "--out", str(inst))
    assert run("find", "--instance", str(inst), "--colouring", "poly",
               "--algorithm", "greedy", "--out", str(tmp_path / "r.json")) == 2

    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"type": "sympoly", "field": "Q", "degree": 2,
                                "coeffs": [[2, 0, "1"], [0, 2, "1"]]}) + "\n")
    assert run("find", "--instance", str(inst), "--colouring", "poly",
               "--poly", str(poly), "--algorithm", "greedy",
               "--out", str(tmp_path / "r.json")) == 0
    result = json.loads((tmp_path / "r.json").read_text())
    assert result["verified"] is True


def test_find_colouring_instance_mismatch(tmp_path):
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "10", "--out", str(inst))
    assert run("find", "--instance", str(inst), "--colouring", "volume",
               "--out", str(tmp_path / "r.json")) == 2


def test_find_stdout_when_no_out(tmp_path, capsys):
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "12", "--out", str(inst))
    capsys.readouterr()
    assert run("find", "--instance", str(inst), "--colouring", "sidon",
               "--algorithm", "exact") == 0
    out = capsys.readouterr().out
    assert json.loads(out.strip())["algorithm"] == "exact"


def test_find_csv_format(tmp_path):
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "12", "--out", str(inst))
    out = tmp_path / "r.csv"
    assert run("find", "--instance", str(inst), "--colouring", "sidon",
               "--format", "csv", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "size,algorithm,seed,verified,subset"


def test_options_do_not_leak_between_calls(tmp_path):
    # main parses every call with one parser per process; the options of one
    # call must not reach the next
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "40", "--out", str(inst))
    find = ["find", "--instance", str(inst), "--colouring", "sidon",
            "--algorithm", "sample-delete", "--seed", "3"]
    first, tweaked, second = (tmp_path / name for name in ("first.json", "p1.csv", "second.json"))
    assert run(*find, "--out", str(first)) == 0
    assert run(*find, "--p", "1.0", "--format", "csv", "--out", str(tweaked)) == 0
    assert run(*find, "--out", str(second)) == 0
    assert tweaked.read_text().startswith("size,algorithm,seed,verified,subset\n")
    assert second.read_bytes() == first.read_bytes()

    def manifest(out):
        obj = json.loads(Path(f"{out}.manifest.json").read_text())
        assert obj.pop("out") == str(out)
        return obj

    assert manifest(tweaked)["p"] == 1.0
    assert manifest(second) == manifest(first)
    assert manifest(first)["p"] is None and manifest(first)["format"] == "json"


def test_oracle_alias(tmp_path):
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "6", "--out", str(inst))
    out = tmp_path / "r.json"
    assert run("oracle", "--instance", str(inst), "--colouring", "sidon",
               "--out", str(out)) == 0
    result = json.loads(out.read_text())
    assert result["algorithm"] == "exact"
    assert result["size"] == 3


# -------------------------------------------------------------- audit


def test_audit_sidon_pass(tmp_path, capsys):
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "30", "--out", str(inst))
    report = tmp_path / "audit.json"
    code = run("audit", "--instance", str(inst), "--colouring", "sidon",
               "--out", str(report))
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    obj = json.loads(report.read_text())
    assert obj["pass"] is True
    assert obj["petals"] <= 2
    assert obj["declared_max_petals"] == 2


def test_audit_points(tmp_path, capsys):
    inst = tmp_path / "pts.json"
    run("generate", "points", "--n", "8", "--d", "2", "--seed", "2", "--out", str(inst))
    capsys.readouterr()
    for colouring, bound in (("circumradius", 2), ("volume", 4), ("similarity", 12)):
        code = run("audit", "--instance", str(inst), "--colouring", colouring)
        assert code == 0, colouring
        assert "PASS" in capsys.readouterr().out


def test_audit_collinear_exit2(tmp_path):
    inst = tmp_path / "bad.json"
    write_collinear_instance(inst)
    assert run("audit", "--instance", str(inst), "--colouring", "volume") == 2


# -------------------------------------------------------------- bench


def test_bench_small_grid(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run("bench", "--colouring", "sidon", "--grid", "30,60,90,120",
               "--algorithms", "greedy", "--trials", "3", "--seed", "4",
               "--out", str(out), "--slope-min", "0.0", "--slope-max", "1.0",
               "--median-coeff", "0.1")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    assert len(lines) == 1 + 4 * 3
    report = json.loads((tmp_path / "bench.csv.report.json").read_text())
    assert report["predicted_slope"] == pytest.approx(1 / 3)
    assert report["pass"] is True
    assert set(report["medians"]["greedy"]) == {"30", "60", "90", "120"}
    err = capsys.readouterr().err
    assert err.count("trial=") == 12  # a line per trial


def test_bench_poly_medians_keyed_by_prepared_size(tmp_path):
    # preparation drops the value 1 (PIN_POLY below), so each grid size n
    # runs on n - 1 values; the medians and the floor check read the CSV's N
    (tmp_path / "poly.json").write_text(json.dumps(PIN_POLY) + "\n")
    out = tmp_path / "bench.csv"
    code = run("bench", "--colouring", "poly", "--poly", str(tmp_path / "poly.json"),
               "--grid", "10,14,18,22", "--trials", "3", "--out", str(out),
               "--slope-min", "0", "--slope-max", "2", "--median-coeff", "0.1")
    assert code == 0
    ns = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
    assert ns == {"9", "13", "17", "21"}
    report = json.loads((tmp_path / "bench.csv.report.json").read_text())
    assert list(report["medians"]["greedy"]) == ["9", "13", "17", "21"]


def test_bench_single_grid_point_usage_error(tmp_path):
    code = run("bench", "--colouring", "sidon", "--grid", "100",
               "--out", str(tmp_path / "b.csv"))
    assert code == 2


def test_bench_unknown_algorithm_exit2(tmp_path, capsys):
    # names are checked against find's --algorithm choices before any trial runs
    out = tmp_path / "b.csv"
    code = run("bench", "--colouring", "sidon", "--grid", "30,60,90,120",
               "--algorithms", "greedy,annealing", "--out", str(out))
    assert code == 2
    assert "unknown algorithm 'annealing'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, algorithms, named", [
    ("30,60,90,120", ",", "--algorithms ','"),
    ("30,60,90,120", "", "--algorithms ''"),
    ("10,x,30,40", "greedy", "'x'"),
], ids=["comma-only-algorithms", "empty-algorithms", "non-integer-grid-entry"])
def test_bench_malformed_list_exit2(tmp_path, capsys, grid, algorithms, named):
    # an empty algorithm list would run no trial yet report PASS
    out = tmp_path / "b.csv"
    assert run("bench", "--colouring", "sidon", "--grid", grid, "--algorithms", algorithms,
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("parameter error:") and named in err
    assert not out.exists()


def test_bench_threshold_fail_exit2(tmp_path):
    code = run("bench", "--colouring", "sidon", "--grid", "30,60,90,120",
               "--trials", "3", "--seed", "4", "--out", str(tmp_path / "b.csv"),
               "--slope-min", "0.0", "--slope-max", "0.01")
    assert code == 2
    report = json.loads((tmp_path / "b.csv.report.json").read_text())
    assert report["pass"] is False


# -------------------------------------------------- determinism, codes


def test_repeat_runs_byte_identical(tmp_path):
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "40", "--out", str(inst))
    blobs = set()
    for _ in range(3):
        out = tmp_path / "r.json"
        assert run("find", "--instance", str(inst), "--colouring", "sidon",
                   "--algorithm", "sample-delete", "--seed", "9",
                   "--out", str(out)) == 0
        blobs.add(out.read_bytes())
    assert len(blobs) == 1


PIN_INSTANCES = {
    "generated-d2": ["generate", "points", "--n", "8", "--d", "2", "--seed", "0"],
    "generated-d3": ["generate", "points", "--n", "8", "--d", "3", "--seed", "0"],
    "spiral-d2": spiral_coords(8),
    "moment-d3": [(t, t * t, t ** 3) for t in range(1, 9)],  # volumes repeat under t -> t + 1
    "range14": ["generate", "integers-range", "--n", "14"],
}
# x^2 y + x y^2 - x - y over Q: the pivot polynomial y^2 - 1 drops the value 1
PIN_POLY = {"type": "sympoly", "field": "Q", "degree": 3,
            "coeffs": [[2, 1, "1"], [1, 2, "1"], [1, 0, "-1"], [0, 1, "-1"]]}
# SHA-256 over the find json and csv files (greedy, sample-delete, exact; --seed 3)
# and the audit file, in that order, each preceded by its name
RESULT_PINS = {
    ("generated-d2", "circumradius"):
        "647cc33627547b8e1fddf4817b0d6a76bed57e5e8b254f0cbd5e47f29555deca",
    ("generated-d2", "volume"):
        "e02aa55f40c3d93ed296a7db5ef7635d4f5c6a813e76d280f8740fa9f67a32e5",
    ("generated-d2", "similarity"):
        "836a9eb29bc839aff3262bd19ba1584cfea3ed4c388998d6d775b4e654d44a0b",
    ("generated-d3", "circumradius"):
        "d62159299e1e3ecbb10fae49d6ad8b37e259aecf7e19150a763f588771122c23",
    ("generated-d3", "volume"):
        "b4f07719be9b6a4f3aae495763b8671a13261a36601c2a3bc76f9c1ad1cbdbfa",
    ("generated-d3", "similarity"):
        "8bdf3e04443210c0b6d96bfa7c866015c0de3384a79e580a833c152fdd456674",
    ("spiral-d2", "circumradius"):
        "cc6da5cf4dc247d7cb1af7c121e10f76d872f9d15026de2e89883ebb487f17d2",
    ("spiral-d2", "volume"):
        "bacb65c8879b47ccc7417ed61c4ac5864da1f40051d8d6acb33a88b30bbe9132",
    ("spiral-d2", "similarity"):
        "924afcd142e9bbe73f8cbf142f5f5c9b1f0b20a6720bff4d0a570a3205fd8dfe",
    ("moment-d3", "circumradius"):
        "43e4a1a90c07669859240165c558dd795402f9735d5db92ed4bf9c983779977b",
    ("moment-d3", "volume"):
        "0158080247e945815bbc3552af1c4f13ef4a9e773940e1c051c02f6aa0e3c9ad",
    ("moment-d3", "similarity"):
        "4bf87c2d030ba8f7bf5f7cdf74ea9d67382a2cb8fa316d200db0a69c9d43067e",
    ("range14", "poly"):
        "5ea68b5445de92362291840c3d20c3cecaf528dfae2302152049457a875a6b7a",
}


@pytest.mark.parametrize("instance, colouring", RESULT_PINS, ids="-".join)
def test_result_files_are_pinned(tmp_path, instance, colouring):
    # vertex labels, subsets, stats and audit witnesses stay byte-identical
    inst = tmp_path / "inst.json"
    recipe = PIN_INSTANCES[instance]
    if isinstance(recipe[0], str):
        assert run(*recipe, "--out", str(inst)) == 0
    else:
        points = PointInstance(dim=len(recipe[0]),
                               points=tuple(tuple(map(Fraction, p)) for p in recipe))
        inst.write_text(json.dumps(points_to_obj(points)) + "\n")
    argv = ["--instance", str(inst), "--colouring", colouring]
    if colouring == "poly":
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(PIN_POLY) + "\n")
        argv += ["--poly", str(poly)]
    files = {}
    for algorithm in ("greedy", "sample-delete", "exact"):
        for fmt in ("json", "csv"):
            out = tmp_path / f"{algorithm}.{fmt}"
            assert run("find", *argv, "--algorithm", algorithm, "--seed", "3",
                       "--format", fmt, "--out", str(out)) == 0
            files[out.name] = out.read_bytes()
    out = tmp_path / "audit.json"
    assert run("audit", *argv, "--out", str(out)) == 0
    files[out.name] = out.read_bytes()
    digest = hashlib.sha256()
    for name, data in files.items():
        digest.update(name.encode() + b"\n" + data)
    assert digest.hexdigest() == RESULT_PINS[instance, colouring], files


def test_run_reproducible_from_manifest(tmp_path):
    # a manifest holds everything needed to regenerate its output byte-for-byte
    out = tmp_path / "pts.json"
    run("generate", "points", "--n", "6", "--d", "2", "--seed", "21", "--out", str(out))
    first = out.read_bytes()
    manifest = json.loads((tmp_path / "pts.json.manifest.json").read_text())

    replay = tmp_path / "replay.json"
    params = manifest["params"]
    argv = ["generate", manifest["kind"], "--n", str(params["n"]),
            "--d", str(params["d"]), "--seed", str(params["seed"]),
            "--out", str(replay)]
    if params["coord_bound"] is not None:
        argv += ["--coord-bound", str(params["coord_bound"])]
    assert run(*argv) == 0
    assert replay.read_bytes() == first

    result = tmp_path / "res.json"
    run("find", "--instance", str(out), "--colouring", "circumradius",
        "--algorithm", "sample-delete", "--seed", "5", "--out", str(result))
    result_bytes = result.read_bytes()
    m2 = json.loads((tmp_path / "res.json.manifest.json").read_text())
    replay2 = tmp_path / "res2.json"
    argv = ["find", "--instance", m2["instance"], "--colouring", m2["colouring"],
            "--algorithm", m2["algorithm"].replace("_", "-"),
            "--seed", str(m2["seed"]), "--shrink", str(m2["shrink"]),
            "--budget", str(m2["budget"]), "--format", m2["format"],
            "--out", str(replay2)]
    assert run(*argv) == 0
    assert replay2.read_bytes() == result_bytes


def test_missing_instance_is_internal_error_free(tmp_path):
    # unreadable input must map to a clean nonzero exit, not a traceback
    code = run("find", "--instance", str(tmp_path / "nope.json"),
               "--colouring", "sidon")
    assert code == 1


@pytest.mark.parametrize("body", [
    '{"type": "points", "d": 2}',                                  # no coords: KeyError
    '{"type": "points", "d": 1, "coords": [[["1", "0"]]]}',        # ZeroDivisionError
    '{"type": "integers", "values": ["x"]}',                       # ValueError
    'not json',
    '{"type": "integers"}',                                        # no values: KeyError
    '[1, 2, 3]',                                                   # AttributeError
])
def test_malformed_instance_is_parameter_error(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_text(body)
    assert run("find", "--instance", str(path), "--colouring", "sidon") == 2
    err = capsys.readouterr().err
    assert err.startswith("parameter error: malformed") and str(path) in err


@pytest.mark.parametrize("body", [
    'not json',
    '{"type": "sympoly", "field": "Q", "degree": 2}',              # no coeffs: KeyError
    '{"type": "sympoly", "field": "Q", "degree": 1, "coeffs": [[1, 0, "1/0"]]}',
])
def test_malformed_poly_is_parameter_error(tmp_path, capsys, body):
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "10", "--out", str(inst))
    poly = tmp_path / "poly.json"
    poly.write_text(body)
    assert run("find", "--instance", str(inst), "--colouring", "poly",
               "--poly", str(poly)) == 2
    err = capsys.readouterr().err
    assert err.startswith("parameter error: malformed") and str(poly) in err


INTS_1_TO_10 = json.dumps(integers_to_obj(IntegerInstance(values=tuple(range(1, 11)))))


@pytest.mark.parametrize("instance, poly, colouring", [
    ('{"type": "integers", "values": [1, 2.9, 5]}', None, "sidon"),
    ('{"type": "integers", "values": [true, 2, 5]}', None, "sidon"),
    ('{"type": "points", "d": 2, "coords": [[[3.7, 1], ["1", "1"]], [["0", "1"], ["0", "1"]],'
     ' [["5", "1"], ["2", "1"]]]}', None, "volume"),
    (INTS_1_TO_10, '{"type": "sympoly", "field": {"GF": 7}, "degree": 1, "coeffs": [[1, 0, 2.9]]}',
     "poly"),
    (INTS_1_TO_10, '{"type": "sympoly", "field": "Q", "degree": 1, "coeffs": [[1, 0, 0.1]]}',
     "poly"),
], ids=["float-value", "bool-value", "float-coordinate", "float-gf7-coefficient",
        "float-q-coefficient"])
def test_json_floats_and_bools_are_refused(tmp_path, capsys, instance, poly, colouring):
    # int() would truncate 2.9 and 3.7 and Fraction() would read 0.1 as a binary fraction
    inst = tmp_path / "inst.json"
    inst.write_text(instance)
    argv = ["find", "--instance", str(inst), "--colouring", colouring]
    named = inst
    if poly is not None:
        named = tmp_path / "poly.json"
        named.write_text(poly)
        argv += ["--poly", str(named)]
    out = tmp_path / "r.json"
    assert run(*argv, "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("parameter error:") and str(named) in err and "not an exact number" in err


def test_module_entry_point_exit_codes(tmp_path):
    src = str(Path(rainbowsets.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def exit_code(*argv):
        return subprocess.run([sys.executable, "-m", "rainbowsets.cli", *argv], env=env,
                              capture_output=True, timeout=60).returncode

    assert exit_code("find", "--instance", str(tmp_path / "nope.json"),
                     "--colouring", "sidon") == 1
    assert exit_code("find", "--colouring", "sidon") == 2
