import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import spernerlab
from spernerlab import cli, search
from spernerlab.cli import _dump, main
from spernerlab.families import MAX_ENUM_N, Family, is_t_intersecting, longest_chain
from spernerlab.generators import random_full_consecutive, random_sigma_ksti
from spernerlab.search import Budget, max_family_size


def write_family(path, n, sets):
    path.write_text(json.dumps({"n": n, "sets": sets}))


class TestCheck:
    def test_report_fields(self, tmp_path, capsys):
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

    def test_chain_violation_reported(self, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        write_family(fam, 4, [[1], [1, 2], [1, 2, 3]])
        rc = main(["check", str(fam), "--t", "1", "--k", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k_sperner"] is False

    def test_malformed_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"nope\": 1}")
        assert main(["check", str(bad), "--t", "1", "--k", "1"]) == 2

    @pytest.mark.parametrize("data", [
        b'{"n": 4, "sets": [[1, "x"]]}',
        b'{"n": 4, "sets": [1]}',
        b'{"n": "4", "sets": []}',
        b'{"n": 4, "sets": [[1.5]]}',
        b'{"n": true, "sets": [[true]]}',
        b'{"n": 4, "sets": [[\xff]]}',
    ])
    def test_malformed_input_exits_2(self, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        assert main(["check", str(bad), "--t", "1", "--k", "1"]) == 2

    def test_missing_file_exits_2(self):
        assert main(["check", "/nonexistent.json", "--t", "1", "--k", "1"]) == 2

    def test_report_round_trips(self, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        write_family(fam, 5, [[1, 2], [1, 3]])
        main(["check", str(fam), "--t", "1", "--k", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert json.loads(json.dumps(doc)) == doc


class TestCompress:
    def test_normalizes_and_reports(self, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        write_family(fam, 6, [[1, 2, 3]])
        rc = main(["compress", str(fam), "--t", "2", "--k", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["family"]["sets"] == [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6]]
        assert doc["report"]["size_after"] >= doc["report"]["size_before"]
        assert doc["report"]["band"] == [4, 4]

    def test_empty_family(self, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        write_family(fam, 6, [])
        assert main(["compress", str(fam), "--t", "2", "--k", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["family"]["sets"] == []
        assert (doc["report"]["band"], doc["report"]["m"], doc["report"]["steps"]) == (
            None, 0, [])


class TestSearchCommand:
    def test_result_is_deterministic(self, tmp_path, capsys):
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

    def test_no_cache_is_a_no_op(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out, flags in ((a, ["--no-cache"]), (b, [])):
            rc = main(["search", "--n", "4", "--t", "2", "--k", "1", *flags,
                       "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["best_size"] == 4

    def test_layer_window(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["search", "--n", "5", "--t", "1", "--k", "1",
                   "--layers", "3:3", "--no-cache", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["best_size"] == 10
        assert main(["search", "--n", "5", "--t", "1", "--k", "1", "--layers", "3"]) == 2

    @pytest.mark.parametrize("window", ["3:1", "-1:2"])
    def test_bad_layer_window_exits_2(self, tmp_path, window):
        out = tmp_path / "r.json"
        assert main(["search", "--n", "4", "--t", "1", "--k", "1", f"--layers={window}",
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["-1", "0"])
    def test_bad_node_budget_exits_2(self, tmp_path, budget):
        out = tmp_path / "r.json"
        assert main(["search", "--n", "4", "--t", "1", "--k", "1", "--budget-nodes", budget,
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("secs", ["0", "-1", "nan"])
    def test_bad_time_budget_exits_2(self, tmp_path, secs):
        out = tmp_path / "r.json"
        assert main(["search", "--n", "6", "--t", "1", "--k", "2", "--budget-secs", secs,
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_internal_error_is_not_a_usage_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("engine bug")
        monkeypatch.setattr("spernerlab.cli.max_family_size", broken)
        with pytest.raises(KeyError):
            main(["search", "--n", "4", "--t", "1", "--k", "1"])


class TestConstructAndBounds:
    def test_construct_b(self, capsys):
        rc = main(["construct", "--which", "B", "--n", "5", "--t", "2", "--k", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == doc["size_formula"] == doc["size_closed_form"] == 8

    def test_construct_parity_error(self):
        assert main(["construct", "--which", "layers", "--n", "5", "--t", "2",
                     "--k", "1"]) == 2

    def test_bounds(self, capsys):
        rc = main(["bounds", "--n", "6", "--t", "1", "--k", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bounds"]["sperner"]["value"] == 20
        assert doc["bounds"]["frankl_intersecting"]["value"] == 26

    def test_bounds_bytes_pinned(self, capsys):
        # every cell with n <= 12 and k <= 3; an entry applies exactly when
        # it has a value
        digest = hashlib.sha256()
        for n in range(1, 13):
            for t in range(1, n + 1):
                for k in range(1, 4):
                    assert main(["bounds", "--n", str(n), "--t", str(t), "--k", str(k)]) == 0
                    out = capsys.readouterr().out
                    digest.update(out.encode())
                    for entry in json.loads(out)["bounds"].values():
                        assert entry["applicable"] == (entry["value"] is not None)
        assert digest.hexdigest() == (
            "8802b9ac23d1d9d04556cc5439c4d4fd95a604a5f1889db491f172640442e152")

    @pytest.mark.parametrize("argv", [
        "bounds --n 10 --t 2 --k 100000000",
        "construct --which layers --n 10 --t 2 --k 100000000",
        "search --n 5 --t 1 --k 100000000",
        "scan --n-max 25 --trials 1",
    ])
    def test_sizes_no_run_can_finish_are_refused_first(self, argv, monkeypatch, capsys):
        # no chain is longer than MAX_FORMULA_N + 1 sets, and scan searches
        # every n up to --n-max; the search command's own refusal sits at
        # the top of max_family_size, ahead of its seeds and its engine
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the refusal")
        targets = [(cli, "bounds_table"), (cli, "construct"),
                   (search, "_construction_seeds"), (search, "_max_family_engine")]
        if not argv.startswith("search"):
            targets.append((cli, "max_family_size"))
        for module, name in targets:
            monkeypatch.setattr(module, name, no_work)
        assert main(argv.split()) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestFamilyDocuments:
    def test_construct_and_compress_output_read_like_the_bare_family(self, tmp_path):
        # check and compress read the family under "family" in what
        # construct and compress write, with the same report as the bare file
        built, bare = tmp_path / "built.json", tmp_path / "bare.json"
        assert main(["construct", "--which", "A", "--n", "13", "--t", "2", "--k", "2",
                     "--out", str(built)]) == 0
        bare.write_text(json.dumps(json.loads(built.read_text())["family"]))
        for cmd in ("check", "compress"):
            reports = []
            for src in (built, bare):
                out = tmp_path / f"{cmd}-{src.stem}.json"
                assert main([cmd, str(src), "--t", "2", "--k", "2", "--out", str(out)]) == 0
                reports.append(out.read_bytes())
            assert reports[0] == reports[1]
        compressed = tmp_path / "compress-built.json"
        again = tmp_path / "again.json"
        assert main(["compress", str(compressed), "--t", "2", "--k", "2",
                     "--out", str(again)]) == 0
        doc, before = json.loads(again.read_text()), json.loads(compressed.read_text())
        assert doc["family"] == before["family"]

    @pytest.mark.parametrize("text", ['{"family": 5}', '{"family": {"nope": 1}}',
                                      '{"which": "A"}', '[]'])
    def test_malformed_wrapped_family_exits_2(self, tmp_path, text, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["check", str(bad), "--t", "1", "--k", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: family JSON needs an integer 'n' and a list of lists 'sets'\n")

    @pytest.mark.parametrize("argv", [["check", "--t", "1", "--k", "1"],
                                      ["compress", "--t", "1", "--k", "1"],
                                      ["coeff-audit"]])
    def test_deeply_nested_json_exits_2(self, tmp_path, argv, capsys):
        # json.load raises RecursionError on it: malformed input all the same
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        assert main([*argv, str(deep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestAudits:
    def test_cycle_audit_clean(self, tmp_path):
        out = tmp_path / "cyc.json"
        rc = main(["cycle-audit", "--n", "12", "--t", "2", "--k", "2",
                   "--trials", "8", "--seed", "5", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["violations"] == 0 and len(doc["trials"]) == 8

    def test_cycle_audit_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["cycle-audit", "--n", "12", "--t", "2", "--k", "2",
                  "--trials", "5", "--seed", "9", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv, digest", [
        ("cycle-audit --n 12 --t 2 --k 2 --trials 20 --seed 5",
         "c5369b711cd083431550274abc2e2a47c8a6674881b95a8f44adafe929e0f0ac"),
        ("cycle-audit --n 15 --t 1 --k 2 --trials 20 --seed 5",
         "e465e8bd5ff602a00dbe921f5c160ff30c17af1630d1b25c628068c5079de2c5"),
        ("cycle-audit --n 14 --t 4 --k 2 --trials 40 --seed 3",
         "b83acdb4e64a9d614ef4a4a19b88e89cd30eda42aec603cd436b5285def49022"),
        # k = 3 and 4: the trials hold all four inequality kinds, where the
        # k = 2 pins above hold only "one" and "four"
        ("cycle-audit --n 20 --t 2 --k 3 --trials 60 --seed 11",
         "aac4d0f449cd67f6317bd36bad9c9839a8bb2d408fba1840a354ce3b02dfa023"),
        ("cycle-audit --n 26 --t 2 --k 4 --trials 60 --seed 12",
         "ecd5ef9ad9e639885fc1f2f7bcb4ba89b9c2d26874f9d5f1b1f47772b435ad2f"),
        # the largest audit cells: k = 3 at n = 32, and the t = 1 path,
        # where the closure check is out of force
        ("cycle-audit --n 32 --t 4 --k 3 --trials 40 --seed 21",
         "2db681d5ba184674541c3572261b500b307aaea5ee9263076fc49bafbb0602d9"),
        ("cycle-audit --n 21 --t 1 --k 3 --trials 40 --seed 22",
         "8bd87e1c9372e75b387b9a5942a7be6e77cfb1af919c353549e434961851e321"),
        ("scan --seed 7 --n-max 4 --trials 4",
         "3616c7907c17dde05618859b415d95b7027791de1ad8908b7d634dc027b5128a"),
        ("construct --which layers --n 14 --t 2 --k 2",
         "cff980d0d97d87245973c887138d2e12c7a4badb57797ca22032bcf35cc16ffc"),
        ("construct --which B --n 13 --t 2 --k 2",
         "233573240ddde259768a65f74aaf8b5ba63f3ec0af1862a38609f2c96cc0e29f"),
        ("search --n 7 --t 1 --k 3 --use-compression",
         "7f59e63b42f14ebf451119fe07f1730de8d2dcff04c0da62b35ae15122a692ab"),
        ("scan --seed 1729 --trials 300",
         "3918fb1eb99f3cfe308681322cd2c89a9c78ca8d0a90a9a2ba42b50a01009f80"),
        # 24,310 members with elements in the third byte of a mask
        ("construct --which layers --n 17 --t 1 --k 1",
         "9671c5f4eb9d4e2df64147e10016d4922163a72b42011feca8b3e3c38f5f2194"),
        # a witness that holds the empty set
        ("search --n 3 --t 0 --k 4",
         "80d6e9db0e55f4f5b45fb385c843601866d7a68675211f9adcf64f33c8140479"),
    ])
    def test_output_bytes_pinned(self, tmp_path, argv, digest):
        out = tmp_path / "out.json"
        assert main([*argv.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("n, t, k, sets, digest", [
        # below the band: two lifts, the first cascading through two levels
        (9, 1, 3, [[1], [1, 2], [1, 3], [1, 2, 3], [1, 4, 5], [1, 6]],
         "f460de70c77c14f6e415e9b29e28d44af127ea8036db098d72a57bc625b8cc4d"),
        # above the band: both antichains shift down
        (8, 2, 2, [[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 7], [1, 2, 3, 4, 5, 6, 7],
                   [2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 5, 7, 8]],
         "9875d350af5041a37bb688c850f2a6d040b57798ca9921c550dbd23ac790ae51"),
    ])
    def test_compress_bytes_pinned(self, tmp_path, n, t, k, sets, digest):
        fam, out = tmp_path / "fam.json", tmp_path / "out.json"
        write_family(fam, n, sets)
        assert main(["compress", str(fam), "--t", str(t), "--k", str(k), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_closure_out_of_force_at_t1(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["cycle-audit", "--n", "15", "--t", "1", "--k", "2", "--trials", "20",
                     "--seed", "5", "--out", str(out)]) == 0
        trials = json.loads(out.read_text())["trials"]
        assert len(trials) == 20
        assert all(tr["complement_closure"] is None for tr in trials)

    def test_chain_failures_below_threshold_are_findings(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["cycle-audit", "--n", "14", "--t", "4", "--k", "2", "--trials", "40",
                     "--seed", "3", "--out", str(out)]) == 0
        below = [tr for tr in json.loads(out.read_text())["trials"]
                 if not tr["above_chain_threshold"]]
        assert len(below) == 21
        assert all(tr["coefficient_chain"] is False and tr["ok"] for tr in below)

    def test_cycle_audit_writes_the_family_of_a_failed_trial(self, tmp_path, monkeypatch):
        # a failed trial names its full consecutive family; the transforms
        # on the loose instance can only fail by raising, so no loose witness
        check = cli.check_instance
        monkeypatch.setattr(cli, "check_instance", lambda G, p: {**check(G, p), "ok": False})
        out = tmp_path / "out.json"
        assert main(["cycle-audit", "--n", "12", "--t", "2", "--k", "2", "--trials", "3",
                     "--seed", "5", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["violations"] == 3
        rng = random.Random(5)
        for trial in doc["trials"]:
            m = rng.randint(0, 1)
            G = random_full_consecutive(rng, 12, 2, 2, m)
            random_sigma_ksti(rng, 12, 2, 2, m)  # the loose instance's draws
            assert trial["weight_monotone"] is True and trial["m"] == m
            assert trial["witness"]["members"] == [[iv.start, iv.length] for iv in G]
            assert "loose_witness" not in trial

    @pytest.mark.parametrize("trials", ["-1", "0"])
    def test_cycle_audit_bad_trials_exits_2(self, tmp_path, trials):
        out = tmp_path / "a.json"
        assert main(["cycle-audit", "--n", "12", "--t", "2", "--k", "2", "--trials", trials,
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '[[1]]',
        '{"n": 12}',
        '[{"n": 12}]',
        '[{"n": 12, "t": 2, "k": 2, "m": 1, "counts": 5}]',
        '[{"n": 12, "t": 2, "k": 2, "m": 1, "counts": [3, 9.5, 9, 3]}]',
        '[{"n": "12", "t": 2, "k": 2, "m": 1, "counts": [3, 9, 9, 3]}]',
    ])
    def test_coeff_audit_malformed_exits_2(self, tmp_path, text):
        profs = tmp_path / "p.json"
        profs.write_text(text)
        assert main(["coeff-audit", str(profs)]) == 2

    def test_coeff_audit_mixed_verdicts(self, tmp_path, capsys):
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

    def test_coeff_audit_skips_profiles_params_refuse(self, tmp_path, capsys):
        # m < 0, and (n, t, k) outside what Params accepts: each used to
        # crash, get "holds" on nothing, or run for minutes
        profiles = [{"n": 12, "t": 2, "k": 2, "m": -1, "counts": []},
                    {"n": 12, "t": 2, "k": 0, "m": 1, "counts": [1, 1]},
                    {"n": 12, "t": 0, "k": 2, "m": 0, "counts": [1, 1]},
                    {"n": 12, "t": -4, "k": 2, "m": 0, "counts": [1, 1]},
                    {"n": 4, "t": 6, "k": 2, "m": 0, "counts": [1, 1]},
                    {"n": 2_000_000, "t": 2, "k": 2, "m": 0, "counts": [1, 1]}]
        profs = tmp_path / "p.json"
        profs.write_text(json.dumps(profiles))
        assert main(["coeff-audit", str(profs)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [p["verdict"] for p in doc["profiles"]] == ["skipped-precondition"] * 6

    def test_coeff_audit_bytes_pinned(self, tmp_path):
        # one profile that holds, one over the prefix and final bounds, one
        # the star inequality refuses, then k = 0, m = -1, t > n, n + t odd
        # and a count list of the wrong length
        profiles = [{"n": 12, "t": 2, "k": 2, "m": 1, "counts": [3, 9, 9, 3]},
                    {"n": 12, "t": 2, "k": 2, "m": 0, "counts": [25, 0]},
                    {"n": 12, "t": 2, "k": 2, "m": 1, "counts": [24, 0, 0, 0]},
                    {"n": 12, "t": 2, "k": 0, "m": 1, "counts": [1, 1]},
                    {"n": 12, "t": 2, "k": 2, "m": -1, "counts": []},
                    {"n": 4, "t": 6, "k": 2, "m": 0, "counts": [1, 1]},
                    {"n": 13, "t": 2, "k": 2, "m": 0, "counts": [1, 1]},
                    {"n": 12, "t": 2, "k": 2, "m": 1, "counts": [1, 1, 1]}]
        profs, out = tmp_path / "p.json", tmp_path / "out.json"
        profs.write_text(json.dumps(profiles))
        assert main(["coeff-audit", str(profs), "--out", str(out)]) == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "1edbda9b3fc684657e56fc58c0eb0b60e2cc783125b0a1b40a74795d114d17e0")

    def test_coeff_audit_prefix_violation(self, tmp_path, capsys):
        # 13 intervals of size (n+t)/2 on a cycle of 12 pass the cap 12
        profs = tmp_path / "p.json"
        profs.write_text('[{"n": 12, "t": 2, "k": 2, "m": 0, "counts": [13, 0]}]')
        assert main(["coeff-audit", str(profs)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == 1
        assert doc["profiles"][0]["verdict"] == "violated"
        assert doc["profiles"][0]["prefix_ok"] is False


class TestScan:
    def test_clean_scan_and_determinism(self, tmp_path):
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

    def test_bad_trials_exits_2(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["scan", "--trials", "-3", "--no-cache", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("n_max", ["-3", "0", "1"])
    def test_n_max_below_2_exits_2(self, tmp_path, n_max, monkeypatch, capsys):
        # the even-case and classical oracle rows start at n = 2: a lower
        # --n-max would drop them all without a word
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the refusal")
        monkeypatch.setattr(cli, "max_family_size", no_work)
        out = tmp_path / "scan.json"
        assert main(["scan", "--n-max", n_max, "--trials", "1", "--out", str(out)]) == 2
        assert not list(tmp_path.iterdir())
        assert capsys.readouterr().err.startswith("error: ")

    def test_injected_violation_exits_1(self, tmp_path):
        out = tmp_path / "s.json"
        rc = main(["scan", "--seed", "7", "--n-max", "4", "--trials", "2",
                   "--no-cache", "--inject-violation", "--out", str(out)])
        assert rc == 1

    def test_csv_projection(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["scan", "--seed", "7", "--n-max", "4", "--trials", "2",
                   "--no-cache", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "check,params,verdict,margin,witness_path,note"
        assert len(lines) > 10

    def test_no_cache_is_a_no_op(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out, flags in ((a, ["--no-cache"]), (b, [])):
            rc = main(["scan", "--seed", "11", "--n-max", "4", "--trials", "2", *flags,
                       "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unproven_oracle_is_budget_exceeded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "SCAN_ORACLE_BUDGET", Budget(nodes=1))
        out = tmp_path / "s.json"
        assert main(["scan", "--seed", "7", "--n-max", "4", "--trials", "2",
                     "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        unproven = [r for r in records if r["verdict"] == "budget-exceeded"]
        assert unproven
        assert all(r["margin"] is None and r["witness_path"] is None for r in unproven)
        # the seeded incumbent already has the odd case's 9 members; unproven,
        # it is no certificate
        odd = [r for r in records if r["check"] == "odd_small_case"]
        assert [(r["verdict"], r["margin"]) for r in odd] == [("budget-exceeded", None)]

    def test_every_oracle_row_runs_under_the_scan_budget(self, tmp_path, monkeypatch):
        assert cli.SCAN_ORACLE_BUDGET == Budget(nodes=100_000, seconds=float("inf"))
        budgets = []

        def recording(*args, **kwargs):
            budgets.append(kwargs.get("budget"))
            return max_family_size(*args, **kwargs)

        monkeypatch.setattr("spernerlab.cli.max_family_size", recording)
        out = tmp_path / "s.json"
        assert main(["scan", "--seed", "7", "--n-max", "5", "--trials", "1",
                     "--out", str(out)]) == 0
        checks = {"even_case_oracle", "odd_small_case", "classical_sperner",
                  "classical_k_layers", "classical_milner", "classical_intersecting_k_sperner"}
        oracle = [r for r in json.loads(out.read_text())["records"] if r["check"] in checks]
        assert {r["check"] for r in oracle} == checks
        assert len(budgets) == len(oracle)
        assert all(b is cli.SCAN_ORACLE_BUDGET for b in budgets)

    def test_violated_shade_expansion_writes_its_family(self, tmp_path, monkeypatch):
        monkeypatch.setattr("spernerlab.cli.shade_expansion_holds", lambda fam, p, i: False)
        out = tmp_path / "s.json"
        assert main(["scan", "--seed", "7", "--n-max", "2", "--trials", "20",
                     "--out", str(out)]) == 1
        records = json.loads(out.read_text())["records"]
        shade = [r for r in records if r["check"] == "shade_expansion"]
        assert len(shade) == 2
        for r in shade:
            assert r["verdict"] == "violated"
            text = pathlib.Path(r["witness_path"]).read_text()
            fam = Family.from_json_dict(json.loads(text))
            assert text == json.dumps(fam.to_json_dict(), sort_keys=True, indent=2) + "\n"
            assert fam.n == r["params"]["n"] and len(fam) > 0
            assert is_t_intersecting(fam, r["params"]["t"]) and longest_chain(fam) <= 2
        assert all(r["witness_path"] is None for r in records if r["verdict"] == "holds")

    def test_scan_witness_paths_follow_out(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            rc = main(["scan", "--seed", "7", "--n-max", "2", "--trials", "1",
                       "--inject-violation", "--out", str(out)])
            assert rc == 1
        paths = [r["witness_path"] for r in json.loads(b.read_text())["records"]
                 if r["witness_path"] is not None]
        assert paths
        for path in paths:
            assert path.startswith(str(b) + ".witness.")
            assert os.path.exists(path)


class TestEntryPoint:
    def test_usage_error_exit_2(self):
        assert main(["not-a-command"]) == 2

    def test_writes_nothing_but_out(self, tmp_path, monkeypatch):
        home, cache, work = tmp_path / "home", tmp_path / "cache", tmp_path / "work"
        home.mkdir()
        work.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("SPERNERLAB_CACHE_DIR", str(cache))
        monkeypatch.chdir(work)
        outs = [work / "search.json", work / "scan.json"]
        assert main(["search", "--n", "5", "--t", "2", "--k", "2", "--use-compression",
                     "--out", str(outs[0])]) == 0
        assert main(["scan", "--seed", "7", "--n-max", "3", "--trials", "2",
                     "--out", str(outs[1])]) == 0
        assert sorted(p for p in tmp_path.rglob("*") if not p.is_dir()) == sorted(outs)
        assert not cache.exists()

    def test_module_invocation(self):
        # The child gets a minimal environment plus the directory this
        # process imported spernerlab from: src/ on an uninstalled
        # checkout, the install location otherwise.
        import_dir = os.path.dirname(os.path.dirname(spernerlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "spernerlab.cli", "bounds", "--n", "4",
             "--t", "1", "--k", "1"],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_dir})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["bounds"]["sperner"]["value"] == 6


# JSON trees that reach every branch of the writer: strings and keys with
# json's own punctuation, newlines and non-ASCII text, huge and negative
# ints, bool, None, floats with nan and inf, tuples, empty containers, and
# rows of ints with empty rows, tuple rows and True mixed in, and families
# over [1] to [24] with the empty and the full set, empty families among them
TEXT = st.text(st.one_of(st.sampled_from('[],:"\n\\ \u00e9\u2028\U0001f600'), st.characters()),
               max_size=6)
INTS = st.one_of(st.integers(), st.integers(-(2 ** 200), 2 ** 200))
ROWS = st.lists(st.one_of(st.lists(INTS, max_size=4), st.lists(INTS, max_size=3).map(tuple),
                          st.lists(st.one_of(INTS, st.just(True)), max_size=3)), max_size=5)
FAMILIES = st.integers(1, MAX_ENUM_N).flatmap(lambda n: st.lists(
    st.one_of(st.just(0), st.just((1 << n) - 1), st.integers(0, (1 << n) - 1)), max_size=6)
    .map(lambda masks: Family(n, masks)))
LEAVES = st.one_of(TEXT, INTS, st.booleans(), st.none(), st.floats(), ROWS,
                   st.lists(INTS, max_size=5), FAMILIES)
TREES = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=3).map(tuple),
    st.dictionaries(TEXT, kids, max_size=4)), max_leaves=24)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(TREES)
def test_dump_is_indented_sorted_json(doc):
    assert _dump(doc) == json.dumps(_as_json(doc), sort_keys=True, indent=2) + "\n"


def _as_json(doc):
    """doc with each Family in it read as its to_json_dict()."""
    if isinstance(doc, Family):
        return doc.to_json_dict()
    if isinstance(doc, dict):
        return {k: _as_json(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_as_json(v) for v in doc]
    return doc
