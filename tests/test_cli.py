import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import is_sidon, spiral_coords
import rainbowsets
from rainbowsets import cli, engine
from rainbowsets.algebra import IntegerInstance, integers_to_obj
from rainbowsets.engine import derive_seed, exact_max_rainbow
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
    assert inst.validate() is inst


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


def test_generate_integers_random_refuses_no_values(tmp_path, capsys):
    out = tmp_path / "ints.json"
    for n in ("0", "-1"):
        assert run("generate", "integers-random", "--n", n, "--max-value", "10",
                   "--out", str(out)) == 2
        assert "parameter error: need at least one value" in capsys.readouterr().err
    assert not out.exists()


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
    assert "lie on a hyperplane" in err  # the violating subset is printed
    assert "0" in err and "2" in err


def test_find_similarity_in_dimension_one_exit2(tmp_path, capsys):
    # every segment is similar to every other, so no petal bound holds
    inst = tmp_path / "line.json"
    points = PointInstance(dim=1, points=tuple((Fraction(t),) for t in (0, 1, 3, 7, 12, 20, 33)))
    inst.write_text(json.dumps(points_to_obj(points)) + "\n")
    out = tmp_path / "r.json"
    assert run("find", "--instance", str(inst), "--colouring", "similarity",
               "--out", str(out)) == 2
    assert "similarity colouring needs d >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_find_refuses_an_over_budget_validation_exit3(tmp_path, capsys):
    # 10 points: the hyperplane check needs C(10, 2) = 45 direction hashes,
    # the circumradius colouring's sphere check C(10, 3) = 120
    inst = tmp_path / "pts.json"
    run("generate", "points", "--n", "10", "--d", "2", "--seed", "3", "--out", str(inst))
    capsys.readouterr()
    assert run("find", "--instance", str(inst), "--colouring", "circumradius",
               "--budget", "100") == 3
    assert capsys.readouterr().err == (
        "resource limit: verify layer: sphere check needs 120 direction hashes; budget is 100\n")


def test_find_budget_exit3(tmp_path):
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "60", "--out", str(inst))
    code = run("find", "--instance", str(inst), "--colouring", "sidon",
               "--algorithm", "sample-delete", "--seed", "2",
               "--budget", "100", "--out", str(tmp_path / "r.json"))
    assert code == 3
    assert run("find", "--instance", str(inst), "--colouring", "sidon", "--budget", "0") == 3


@pytest.mark.parametrize("command, option", [("find", "--budget"), ("oracle", "--budget"),
                                             ("oracle", "--limit"), ("audit", "--budget"),
                                             ("bench", "--budget")])
def test_negative_budget_or_limit_exit2(tmp_path, capsys, command, option):
    # a bad parameter, refused before any work; not a budget refusal (exit 3)
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "10", "--out", str(inst))
    source = ["--grid", "10,20,30,40"] if command == "bench" else ["--instance", str(inst)]
    out = tmp_path / "r.out"
    assert run(command, *source, "--colouring", "sidon", option, "-1", "--out", str(out)) == 2
    assert f"argument {option}: must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("option", [["oracle", "--seed", "5"], ["oracle", "--shrink", "0.1"],
                                    ["oracle", "--p", "0.3"], ["find", "--shrink", "0.5"],
                                    ["audit", "--p", "0.3"]],
                         ids=["oracle-seed", "oracle-shrink", "oracle-p", "find-shrink", "audit-p"])
def test_options_nothing_reads_are_refused(tmp_path, capsys, option):
    # the oracle takes no seed and no sampling probability, and --p is the one
    # sampling knob; no parser reads --p as an abbreviation of --poly
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "6", "--out", str(inst))
    out = tmp_path / "r.json"
    command, *rest = option
    assert run(command, "--instance", str(inst), "--colouring", "sidon", *rest,
               "--out", str(out)) == 2
    assert "unrecognized arguments: " + " ".join(rest) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algorithm, option, named", [
    ("greedy", ["--p", "0.3"], "--p is sample-delete's keep-probability; greedy reads none"),
    ("exact", ["--p", "0.3"], "--p is sample-delete's keep-probability; exact reads none"),
    ("greedy", ["--limit", "3"], "--limit caps the exact oracle; greedy reads none"),
    ("sample-delete", ["--limit", "3"], "--limit caps the exact oracle; sample-delete reads none"),
], ids=["greedy-p", "exact-p", "greedy-limit", "sample-delete-limit"])
def test_find_refuses_options_its_algorithm_never_reads(tmp_path, capsys, algorithm, option,
                                                         named):
    # else the manifest would record a p or a limit that shaped nothing
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "6", "--out", str(inst))
    out = tmp_path / "r.json"
    assert run("find", "--instance", str(inst), "--colouring", "sidon", "--algorithm", algorithm,
               *option, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"parameter error: {named}\n"
    assert not out.exists()


def test_oracle_manifest_records_no_seed_or_p(tmp_path):
    inst = tmp_path / "ints.json"
    run("generate", "integers-range", "--n", "6", "--out", str(inst))
    out = tmp_path / "r.json"
    assert run("oracle", "--instance", str(inst), "--colouring", "sidon", "--limit", "6",
               "--out", str(out)) == 0
    text = Path(f"{out}.manifest.json").read_text()
    assert '"algorithm":"exact","seed":null,"p":null,"limit":6,' in text
    assert "shrink" not in json.loads(text)


def test_oracle_refuses_by_nodes_not_vertices(tmp_path, capsys):
    # no vertex cap: 26 and 30 values answer within the default budget of
    # nodes, a --limit they meet leaves the result file byte-identical, and
    # so does a budget of exactly the nodes searched, while one less refuses
    for n, ruler, nodes in ((26, ["1", "4", "5", "13", "19", "24", "26"], 73682),
                            (30, ["1", "3", "14", "15", "20", "23", "30"], 248807)):
        inst = tmp_path / f"ints{n}.json"
        run("generate", "integers-range", "--n", str(n), "--out", str(inst))
        oracle = ["oracle", "--instance", str(inst), "--colouring", "sidon"]
        out, limited = tmp_path / f"r{n}.json", tmp_path / f"limited{n}.json"
        assert run(*oracle, "--out", str(out)) == 0
        assert json.loads(out.read_text())["subset"] == ruler
        assert json.loads(out.read_text())["stats"]["nodes_explored"] == nodes
        assert run(*oracle, "--limit", str(n), "--out", str(limited)) == 0
        assert limited.read_bytes() == out.read_bytes()
        assert run(*oracle, "--budget", str(nodes), "--out", str(limited)) == 0
        assert limited.read_bytes() == out.read_bytes()
        capsys.readouterr()
        assert run(*oracle, "--budget", str(nodes - 1)) == 3
        assert capsys.readouterr().err == ("resource limit: search layer: the exact oracle for "
                                           f"k=2 needs more than {nodes - 1} nodes; budget is "
                                           f"{nodes - 1}\n")
        assert run(*oracle, "--limit", str(n - 1)) == 3
        assert capsys.readouterr().err == ("resource limit: search layer: the exact oracle for "
                                           f"k=2 needs {n} vertices; budget is {n - 1}\n")


def test_oracle_limit_comes_before_k_above_n(tmp_path, capsys):
    # --limit is checked against the instance before any colour is computed
    inst = tmp_path / "one.json"
    run("generate", "integers-range", "--n", "1", "--out", str(inst))
    assert run("oracle", "--instance", str(inst), "--colouring", "sidon", "--limit", "0") == 3
    assert "the exact oracle for k=2 needs 1 vertices; budget is 0" in capsys.readouterr().err
    assert run("oracle", "--instance", str(inst), "--colouring", "sidon") == 2
    assert "k=2 exceeds ground set size 1" in capsys.readouterr().err


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
    assert obj["petals"] == 2
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
    assert lines[0] == cli.BENCH_CSV_HEADER
    assert lines[0] == "N,k,h,lambda,colouring,algorithm,trial,seed,rainbow_size,runtime_ms"
    assert len(lines) == 1 + 4 * 3
    rows = [line.split(",") for line in lines[1:]]
    assert [row[6] for row in rows] == ["0", "1", "2"] * 4  # trials 0..t-1 per N
    assert all(row[7] == str(derive_seed(4, int(row[6]))) for row in rows)
    assert all(0 < int(row[8]) <= int(row[0]) for row in rows)
    assert lines[1].startswith("30,2,1,2,sidon,greedy,0,")
    masked = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)  # less runtime_ms
    assert hashlib.sha256(masked.encode()).hexdigest() == (
        "c18bf03485cbb0f87f70fed6b79739bf477ac65a006a1c1b4557ab9296d56bf6"), masked
    # strict JSON: parse_constant sees only NaN, Infinity and -Infinity
    report = json.loads((tmp_path / "bench.csv.report.json").read_text(),
                        parse_constant=pytest.fail)
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


def test_bench_poly_exact_runs_every_grid_size(tmp_path):
    # no vertex cap: the oracle answers every grid size, up to N = 21
    (tmp_path / "poly.json").write_text(json.dumps(PIN_POLY) + "\n")
    out = tmp_path / "bench.csv"
    assert run("bench", "--colouring", "poly", "--poly", str(tmp_path / "poly.json"),
               "--grid", "10,14,18,22", "--algorithms", "greedy,sample-delete,exact",
               "--trials", "4", "--out", str(out)) == 2  # slopes outside the band
    assert len(out.read_text().splitlines()) == 1 + 4 * 3 * 4
    report = json.loads((tmp_path / "bench.csv.report.json").read_text())
    assert set(report["fits"]) == {"greedy", "sample_delete", "exact"}
    assert report["fits"]["exact"]["slope"] > 0
    assert report["medians"]["exact"] == {"9": 9, "13": 13, "17": 17, "21": 20}


def test_bench_runs_the_seedless_oracle_once_per_size(tmp_path, capsys, monkeypatch):
    # the exact oracle takes no seed, so each grid size searches once and its
    # answer fills every trial's row
    calls = []
    search = engine.exact_max_rainbow

    def counted(*args, **kwargs):
        calls.append(args[1].n)
        return search(*args, **kwargs)

    monkeypatch.setattr(engine, "exact_max_rainbow", counted)
    out = tmp_path / "bench.csv"
    assert run("bench", "--colouring", "sidon", "--grid", "10,12,14,16",
               "--algorithms", "greedy,exact", "--trials", "3", "--seed", "4",
               "--out", str(out)) == 2  # slopes outside the default band
    assert calls == [10, 12, 14, 16]
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 4 * 2 * 3
    exact = [row for row in rows if row[5] == "exact"]
    assert [row[6] for row in exact] == ["0", "1", "2"] * 4
    for i in range(0, 12, 3):  # one search per N: one size and one runtime in its three rows
        assert len({(row[8], row[9]) for row in exact[i:i + 3]}) == 1
    report = json.loads((tmp_path / "bench.csv.report.json").read_text())
    assert report["medians"]["exact"] == {"10": 4, "12": 5, "14": 5, "16": 5}  # Golomb rulers
    assert capsys.readouterr().err.count("algorithm=exact trial=") == 12


def test_bench_reports_the_fits_it_can_make(tmp_path, capsys):
    # sample-delete keeps nothing in all three trials at N = 16: it gets no
    # fit and the run fails, but greedy's fit and the report are still written
    out = tmp_path / "bench.csv"
    assert run("bench", "--colouring", "volume", "--d", "2", "--grid", "10,12,14,16",
               "--algorithms", "greedy,sample-delete", "--trials", "3", "--seed", "5",
               "--out", str(out)) == 2
    assert len(out.read_text().splitlines()) == 1 + 4 * 2 * 3
    report = json.loads((tmp_path / "bench.csv.report.json").read_text())
    assert report["fits"]["sample_delete"] is None
    assert set(report["fits"]["greedy"]) == {"slope", "stderr", "intercept"}
    assert report["medians"]["sample_delete"] == {"10": 0, "12": 0, "14": 0, "16": 0}
    assert report["pass"] is False
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[0].startswith("algorithm=greedy slope=")
    assert stdout[1:] == ["algorithm=sample_delete no fit: mean rainbow size at N=16 is not "
                          "positive", "FAIL"]


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


def test_bench_takes_no_abbreviated_option(tmp_path, capsys):
    # --algorithm is not read as --algorithms
    out = tmp_path / "b.csv"
    assert run("bench", "--colouring", "sidon", "--grid", "10,20,30,40", "--algorithm", "exact",
               "--out", str(out)) == 2
    assert "unrecognized arguments: --algorithm exact" in capsys.readouterr().err
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


@pytest.mark.parametrize("colouring, grid, size", [
    (["--colouring", "sidon"], "10,20,30,-3", -3),
    (["--colouring", "volume", "--d", "2"], "10,12,14,0", 0),
], ids=["sidon-negative", "volume-zero"])
def test_bench_grid_size_below_one_exit2(tmp_path, capsys, colouring, grid, size):
    # refused by the grid parse, not by the instance builder's own message
    out = tmp_path / "b.csv"
    assert run("bench", *colouring, "--grid", grid, "--trials", "3", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"parameter error: --grid sizes must be at least 1, got {size}" in err
    assert "N=" not in err  # no trial ran
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("option", ["--slope-min", "--slope-max", "--median-coeff"])
def test_bench_non_finite_threshold_exit2(tmp_path, capsys, option, value):
    # refused before any trial: NaN fails every threshold, infinity passes one,
    # and neither can be written as JSON
    out = tmp_path / "b.csv"
    assert run("bench", "--colouring", "sidon", "--grid", "10,20,30,40", "--trials", "3",
               option, value, "--out", str(out)) == 2
    assert f"argument {option}: must be a finite number, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_bench_threshold_fail_exit2(tmp_path):
    code = run("bench", "--colouring", "sidon", "--grid", "30,60,90,120",
               "--trials", "3", "--seed", "4", "--out", str(tmp_path / "b.csv"),
               "--slope-min", "0.0", "--slope-max", "0.01")
    assert code == 2
    report = json.loads((tmp_path / "b.csv.report.json").read_text())
    assert report["pass"] is False
    # the same slope passes a wide band, and the median floor alone fails the run
    code = run("bench", "--colouring", "sidon", "--grid", "30,60,90,120",
               "--trials", "3", "--seed", "4", "--out", str(tmp_path / "b.csv"),
               "--slope-min", "0.0", "--slope-max", "1.0", "--median-coeff", "10")
    assert code == 2
    report = json.loads((tmp_path / "b.csv.report.json").read_text())
    assert report["pass"] is False


# Two bench runs that fail the default thresholds (exit 2), pinned by the SHA-256
# of the CSV without its runtime_ms column, the report, and the SHA-256 of the
# stderr trial lines with their runtimes masked.
BENCH_PINS = {
    "sidon": (
        ["--colouring", "sidon", "--grid", "30,60,90,120",
         "--algorithms", "greedy,sample-delete", "--trials", "3", "--seed", "1"],
        "c9817a6a56d3a8651ba518d6995ff424f8aff8669a0491b664b03e25d8040eb6",
        {"colouring": "sidon", "algorithms": ["greedy", "sample_delete"],
         "grid": [30, 60, 90, 120], "trials": 3, "master_seed": 1,
         "predicted_slope": 1 / 3,
         "fits": {"greedy": {"slope": 0.39374456057694307, "stderr": 0.009357402370006042,
                             "intercept": 0.4580037163499353},
                  "sample_delete": {"slope": -0.043236227232704934,
                                    "stderr": 0.08534717148799002,
                                    "intercept": 0.990166897678888}},
         "medians": {"greedy": {"30": 6, "60": 8, "90": 9, "120": 10},
                     "sample_delete": {"30": 2, "60": 3, "90": 2, "120": 3}},
         "thresholds": {"slope_min": 0.28, "slope_max": 0.4, "median_coeff": 0.8},
         "pass": False},
        "e4a46ad53cbb28e7868ec0af73fab145185a6739f078576b0caaecf3cfa4bc64",
    ),
    "circumradius": (
        ["--colouring", "circumradius", "--d", "2", "--grid", "6,7,8,9",
         "--algorithms", "greedy,exact", "--trials", "3", "--seed", "2"],
        "010f7c4179582d16f94060313e2f6b3ea24c1731b5b74d7eee6be76e71f8c6bf",
        {"colouring": "circumradius", "algorithms": ["greedy", "exact"],
         "grid": [6, 7, 8, 9], "trials": 3, "master_seed": 2, "predicted_slope": 0.2,
         "fits": {"greedy": {"slope": 1.0, "stderr": 0.0, "intercept": 0.0},
                  "exact": {"slope": 1.0, "stderr": 0.0, "intercept": 0.0}},
         "medians": {"greedy": {"6": 6, "7": 7, "8": 8, "9": 9},
                     "exact": {"6": 6, "7": 7, "8": 8, "9": 9}},
         "thresholds": {"slope_min": 0.28, "slope_max": 0.4, "median_coeff": 0.8},
         "pass": False},
        "4f8961f16ecfc57c1763a62723a9e9b236dd009507ac3d1e1b587adc3892b7d2",
    ),
}


@pytest.mark.parametrize("case", BENCH_PINS)
def test_bench_outputs_are_pinned(tmp_path, capsys, case):
    argv, csv_digest, want, err_digest = BENCH_PINS[case]
    out = tmp_path / "bench.csv"
    assert run("bench", *argv, "--out", str(out)) == 2
    masked = "".join(line.rsplit(",", 1)[0] + "\n" for line in out.read_text().splitlines())
    assert hashlib.sha256(masked.encode()).hexdigest() == csv_digest, masked
    report = json.loads((tmp_path / "bench.csv.report.json").read_text())
    fits = report.pop("fits")  # math.log may differ in its last bit across platforms
    assert report == {key: value for key, value in want.items() if key != "fits"}
    assert list(fits) == list(want["fits"])
    for algorithm, fit in want["fits"].items():
        assert fits[algorithm] == pytest.approx(fit, rel=1e-12)
    err = re.sub(r"runtime_ms=\S+", "runtime_ms=*", capsys.readouterr().err)
    assert hashlib.sha256(err.encode()).hexdigest() == err_digest, err


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
    assert "shrink" not in m2 and m2["p"] is None  # the default p is a function of N alone
    replay2 = tmp_path / "res2.json"
    argv = ["find", "--instance", m2["instance"], "--colouring", m2["colouring"],
            "--algorithm", m2["algorithm"].replace("_", "-"), "--seed", str(m2["seed"]),
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


@pytest.mark.parametrize("command, instance, poly, colouring, expected", [
    ("find", '{"type": "integers", "values": "1357"}', None, "sidon", "a JSON array, got '1357'"),
    ("find", '{"type": "integers", "values": {"5": 1, "9": 2}}', None, "sidon",
     "a JSON array, got {'5': 1, '9': 2}"),
    ("find", '{"type": "points", "d": 1, "coords": [["12"], ["13"], ["35"]]}', None, "volume",
     "a JSON array of 2 items, got '12'"),
    ("find", '{"type": "points", "d": 1, "coords": "[[1, 2]]"}', None, "volume",
     "a JSON array, got '[[1, 2]]'"),
    ("find", '{"type": "points", "d": 1, "coords": [[["1", "2", "3"]], [["1", "3"]]]}', None,
     "volume", "a JSON array of 2 items, got ['1', '2', '3']"),
    ("audit", INTS_1_TO_10, '{"type": "sympoly", "field": "Q", "degree": 2, '
     '"coeffs": ["201", "021"]}', "poly", "a JSON array of 3 items, got '201'"),
    ("audit", INTS_1_TO_10, '{"type": "sympoly", "field": "Q", "degree": 2, '
     '"coeffs": [[2, 0]]}', "poly", "a JSON array of 3 items, got [2, 0]"),
], ids=["string-values", "object-values", "string-coordinate", "string-coords",
        "long-coordinate", "string-terms", "short-term"])
def test_arrays_must_be_json_arrays(tmp_path, capsys, command, instance, poly, colouring,
                                    expected):
    # Python iterates a string or an object like a list: "1357" would read as
    # 1, 3, 5, 7, the coordinate "12" as 1/2 and the term "201" as 2 x^2
    inst = tmp_path / "inst.json"
    inst.write_text(instance)
    argv = [command, "--instance", str(inst), "--colouring", colouring]
    named = inst
    if poly is not None:
        named = tmp_path / "poly.json"
        named.write_text(poly)
        argv += ["--poly", str(named)]
    out = tmp_path / "r.json"
    assert run(*argv, "--out", str(out)) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"parameter error: {named}: expected {expected}\n"


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
