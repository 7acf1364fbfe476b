import json
import os
import subprocess
import sys

import pytest

import spernerlab
from spernerlab.cli import main


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SPERNERLAB_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def write_family(path, n, sets):
    path.write_text(json.dumps({"n": n, "sets": sets}))


class TestCheck:
    def test_report_fields(self, cache_env, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        write_family(fam, 6, [[1, 2, 3], [1, 2, 3, 4]])
        rc = main(["check", str(fam), "--t", "2", "--k", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["t_intersecting"] is True
        assert doc["longest_chain"] == 2
        assert doc["k_sperner"] is True
        assert doc["weight"] == 35
        assert doc["layer_profile"] == {"3": 1, "4": 1}

    def test_chain_violation_reported(self, cache_env, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        write_family(fam, 4, [[1], [1, 2], [1, 2, 3]])
        rc = main(["check", str(fam), "--t", "1", "--k", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k_sperner"] is False

    def test_malformed_exits_2(self, cache_env, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"nope\": 1}")
        assert main(["check", str(bad), "--t", "1", "--k", "1"]) == 2

    def test_missing_file_exits_2(self, cache_env):
        assert main(["check", "/nonexistent.json", "--t", "1", "--k", "1"]) == 2

    def test_report_round_trips(self, cache_env, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        write_family(fam, 5, [[1, 2], [1, 3]])
        main(["check", str(fam), "--t", "1", "--k", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert json.loads(json.dumps(doc)) == doc


class TestCompress:
    def test_normalizes_and_reports(self, cache_env, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        write_family(fam, 6, [[1, 2, 3]])
        rc = main(["compress", str(fam), "--t", "2", "--k", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["family"]["sets"] == [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6]]
        assert doc["report"]["size_after"] >= doc["report"]["size_before"]
        assert doc["report"]["band"] == [4, 4]


class TestSearchCommand:
    def test_result_and_cache(self, cache_env, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        rc = main(["search", "--n", "5", "--t", "2", "--k", "2",
                   "--use-compression", "--out", str(out1)])
        assert rc == 0
        rc = main(["search", "--n", "5", "--t", "2", "--k", "2",
                   "--use-compression", "--out", str(out2)])
        assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["best_size"] == 9 and doc["proven_optimal"]
        assert doc["witness"]["n"] == 5

    def test_no_cache_bypass(self, cache_env, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["search", "--n", "4", "--t", "2", "--k", "1", "--no-cache",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["best_size"] == 4
        assert not (cache_env / "cache").exists()

    def test_layer_window(self, cache_env, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["search", "--n", "5", "--t", "1", "--k", "1",
                   "--layers", "3:3", "--no-cache", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["best_size"] == 10


class TestConstructAndBounds:
    def test_construct_b(self, cache_env, capsys):
        rc = main(["construct", "--which", "B", "--n", "5", "--t", "2", "--k", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == doc["size_formula"] == doc["size_closed_form"] == 8

    def test_construct_parity_error(self, cache_env):
        assert main(["construct", "--which", "layers", "--n", "5", "--t", "2",
                     "--k", "1"]) == 2

    def test_bounds(self, cache_env, capsys):
        rc = main(["bounds", "--n", "6", "--t", "1", "--k", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bounds"]["sperner"]["value"] == 20
        assert doc["bounds"]["frankl_intersecting"]["value"] == 26


class TestAudits:
    def test_cycle_audit_clean(self, cache_env, tmp_path):
        out = tmp_path / "cyc.json"
        rc = main(["cycle-audit", "--n", "12", "--t", "2", "--k", "2",
                   "--trials", "8", "--seed", "5", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["violations"] == 0 and len(doc["trials"]) == 8

    def test_cycle_audit_deterministic(self, cache_env, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["cycle-audit", "--n", "12", "--t", "2", "--k", "2",
                  "--trials", "5", "--seed", "9", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_coeff_audit_mixed_verdicts(self, cache_env, tmp_path, capsys):
        profs = tmp_path / "p.json"
        profs.write_text(json.dumps([
            {"n": 12, "t": 2, "k": 2, "m": 1, "counts": [3, 9, 9, 3]},
            {"n": 12, "t": 2, "k": 2, "m": 1, "counts": [24, 0, 0, 0]},
            {"n": -2, "t": 2, "k": 2, "m": 1, "counts": [3, 9, 9, 3]},
            # band bottom (n+t)/2 - m below zero: empty classes weigh 0
            {"n": 4, "t": 2, "k": 1, "m": 4, "counts": [0] * 9},
        ]))
        rc = main(["coeff-audit", str(profs)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["profiles"][0]["verdict"] == "holds"
        assert doc["profiles"][1]["verdict"] == "skipped-precondition"
        assert doc["profiles"][2]["verdict"] == "skipped-precondition"
        assert doc["profiles"][3]["verdict"] == "holds"


class TestScan:
    def test_clean_scan_and_determinism(self, cache_env, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            rc = main(["scan", "--seed", "7", "--n-max", "4", "--trials", "4",
                       "--no-cache", "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert all(r["verdict"] in ("holds", "budget-exceeded") for r in doc["records"])
        names = {r["check"] for r in doc["records"]}
        assert {"even_case_oracle", "compression_invariants", "cycle_universals",
                "averaging_identity", "binomial_swap_suffix",
                "rearrangement_dominance"} <= names

    def test_injected_violation_exits_1(self, cache_env, tmp_path):
        out = tmp_path / "s.json"
        rc = main(["scan", "--seed", "7", "--n-max", "4", "--trials", "2",
                   "--no-cache", "--inject-violation", "--out", str(out)])
        assert rc == 1

    def test_csv_projection(self, cache_env, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["scan", "--seed", "7", "--n-max", "4", "--trials", "2",
                   "--no-cache", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "check,params,verdict,margin,witness_path,note"
        assert len(lines) > 10

    def test_scan_cache_round_trip(self, cache_env, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        rc = main(["scan", "--seed", "11", "--n-max", "4", "--trials", "2",
                   "--out", str(a)])
        assert rc == 0
        rc = main(["scan", "--seed", "11", "--n-max", "4", "--trials", "2",
                   "--out", str(b)])
        assert rc == 0
        assert a.read_bytes() == b.read_bytes()


class TestEntryPoint:
    def test_usage_error_exit_2(self):
        assert main(["not-a-command"]) == 2

    def test_module_invocation(self, tmp_path):
        # The child gets a minimal environment plus the directory this
        # process imported spernerlab from: src/ on an uninstalled
        # checkout, the install location otherwise.
        import_dir = os.path.dirname(os.path.dirname(spernerlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "spernerlab.cli", "bounds", "--n", "4",
             "--t", "1", "--k", "1"],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "SPERNERLAB_CACHE_DIR": str(tmp_path),
                 "PYTHONPATH": import_dir})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["bounds"]["sperner"]["value"] == 6
