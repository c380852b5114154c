import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from qderiv import cli, tables, verify
from qderiv.render import FORMATS, render
from qderiv.ring import QPoly
from qderiv.tables import a_table


def qpoly_from_json(data):
    return QPoly(map(int, data["coeffs"]))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTableCommand:
    def test_json_matches_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "A", "--n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "A"
        rows = {
            (int(n), int(k), int(a), int(b)): qpoly_from_json(poly)
            for n, k, a, b, poly in payload["rows"]
        }
        assert rows == dict(a_table(3).items())

    def test_text_and_latex_render(self, capsys):
        code, out, _ = run_cli(capsys, "table", "Ac", "--n", "2", "--format", "text")
        assert code == 0 and "(0 1 1 0)" in out and "1 + q" in out
        code, out, _ = run_cli(capsys, "table", "a_small", "--n", "4", "--format", "latex")
        assert code == 0 and out.startswith("\\begin{tabular}")

    def test_fib_triangle(self, capsys):
        code, out, _ = run_cli(capsys, "table", "fib", "--n", "6", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,alpha,beta"
        # row-sum entries carry the Fibonacci numbers
        sums = [line.split(",") for line in lines[1:]]
        fib_alpha = [int(r[2]) for r in sums if int(r[1]) == int(r[0]) + 3]
        assert fib_alpha == [1, 2, 3, 5, 8, 13, 21]

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "table", "nope", "--n", "3")
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "A", "--n", "-1"),
            ("export", "B", "--n", "-2", "--out", "unused.json"),
            ("oracle", "Ac", "--n", "-1"),
            ("oracle", "A", "--n", "3", "--bound-bruteforce", "-1"),
            ("series", "tan_q", "--order", "-1"),
            ("verify", "1.9", "--n", "-1"),
            ("verify", "2.3", "--order", "-1"),
            ("verify", "triple.A", "--bound-bruteforce", "-1"),
        ],
    )
    def test_negative_bound_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, *argv)
        assert exc.value.code == 2
        assert "must be nonnegative" in capsys.readouterr().err


class TestOracleCommand:
    def test_matches_table_command(self, capsys):
        code, table_out, _ = run_cli(capsys, "table", "A", "--n", "3", "--format", "csv")
        assert code == 0
        code, oracle_out, _ = run_cli(capsys, "oracle", "A", "--n", "3", "--format", "csv")
        assert code == 0
        assert table_out == oracle_out

    def test_bound_guard_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "A", "--n", "99")
        assert code == 2
        assert "bound" in err

    def test_bound_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "Ac", "--n", "2", "--format", "csv",
            "--bound-bruteforce", "2",
        )
        assert code == 0 and "q" in out

    def test_bound_above_the_size_limit_exit_2(self, capsys, monkeypatch):
        def never(n):
            raise AssertionError("built the oracle tallies of order %d" % n)

        # the tallies that verify refuses past --bound-bruteforce 10: none is built
        monkeypatch.setattr(tables, "oracle_all", never)
        code, out, err = run_cli(capsys, "oracle", "A", "--n", "11", "--bound-bruteforce", "11")
        assert code == 2 and out == ""
        assert err == (
            "error: order 11 exceeds the brute-force limit 10 "
            "(the largest n whose oracle tallies stay under 48 MB)\n"
        )


class TestVerifyCommand:
    def test_single_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "1.9", "--n", "2", "--order", "8"
        )
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["id"] for r in reports] == ["1.9"] * 3
        assert all(r["status"] == "pass" for r in reports)

    def test_multiple_ids_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "table1", "2.3", "--format", "text", "--order", "6"
        )
        assert code == 0
        assert out.startswith("PASS table1")

    def test_unknown_id_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bogus.id")
        assert code == 2 and "unknown check id" in err

    @pytest.mark.parametrize("ids", [("all", "1.9"), ("1.9", "all")])
    def test_all_with_other_ids_exit_2(self, capsys, ids):
        code, out, err = run_cli(capsys, "verify", *ids)
        assert code == 2 and out == ""
        assert err == "error: check id 'all' cannot be combined with other check ids\n"

    def test_failure_exit_1(self, capsys, monkeypatch):
        fixtures = dict(verify.DEFAULT_FIXTURES)
        table = dict(fixtures["table1.a"])
        table[(4, 3)] = table[(4, 3)] + 1
        fixtures["table1.a"] = table
        monkeypatch.setattr(verify, "DEFAULT_FIXTURES", fixtures)
        code, out, _ = run_cli(capsys, "verify", "table1")
        assert code == 1
        report = json.loads(out.strip().splitlines()[0])
        assert report["status"] == "fail"
        assert report["first_discrepancy"]["index"] == ["a", 4, 3]

    def test_order_below_n_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "1.9", "--n", "12", "--order", "5")
        assert code == 2 and out == ""
        assert "order" in err

    @pytest.mark.parametrize("ids", [("all",), ("10.2",)])
    def test_n_beyond_carlitz_fixture_exit_2(self, capsys, ids):
        code, out, err = run_cli(capsys, "verify", *ids, "--n", "6")
        assert code == 2 and out == ""
        assert "10.2" in err and "Carlitz fixture" in err

    @pytest.mark.parametrize("check_id", ["7.1", "7.imaj"])
    def test_alternating_n_above_the_tally_limit_exit_2(self, capsys, check_id):
        code, out, err = run_cli(capsys, "verify", check_id, "--n", "100000")
        assert code == 2 and out == ""
        assert err == (
            "error: check %s needs n <= 15 (the largest n whose alternating tally stays "
            "under 48 MB), got n=100000\n" % check_id
        )

    @pytest.mark.parametrize("args, check_id, limit, held", [
        (("8.phi", "--n", "9"), "8.phi", 8, "phi and psi images"),
        (("8.2", "--n", "9"), "8.2", 8, "phi and psi images"),
        # 8.phi is the first check of the registry above its limit at n = 9
        (("all", "--n", "9"), "8.phi", 8, "phi and psi images"),
        (("triple.A", "--bound-bruteforce", "11"), "triple.A", 10, "--bound-bruteforce oracle tallies"),
        # triple.A is the first check of the registry whose brute_n is capped
        (("all", "--bound-bruteforce", "11"), "triple.A", 10, "--bound-bruteforce oracle tallies"),
    ])
    def test_walk_n_above_its_memory_limit_exit_2(self, capsys, args, check_id, limit, held):
        code, out, err = run_cli(capsys, "verify", *args)
        assert code == 2 and out == ""
        assert err == "error: check %s needs n <= %d (the largest n whose %s stay under 48 MB), got n=%s\n" % (
            check_id, limit, held, args[-1]
        )

    @pytest.mark.parametrize("n", [11, 101])
    def test_rho_gamma_takes_an_n_past_its_old_image_limit(self, monkeypatch, capsys, n):
        # 7.rhogamma keeps no image, so it has no size limit; a stub stands
        # in for the check, which takes 12 s at 11
        def check(n_max):
            return verify.VerificationReport("7.rhogamma", {"n_max": n_max}, "pass", None)

        monkeypatch.setattr(verify, "check_rho_gamma", check)
        code, out, err = run_cli(capsys, "verify", "7.rhogamma", "--n", str(n))
        assert code == 0 and err == ""
        assert json.loads(out)["params"] == {"n_max": n}

    def test_refine_bound_is_not_clamped(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "10.7", "--n", "7")
        assert code == 0
        assert json.loads(out)["params"] == {"n_max": 7}

    def test_triple_checks_at_small_n(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "triple.A", "triple.B", "triple.Ac", "--n", "4")
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["params"] for r in reports] == [{"brute_n": 8, "rewrite_n": 4}] * 3


class TestSeriesCommand:
    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "series", "tan_q", "--order", "5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        coeffs = [qpoly_from_json(c) for c in data["coeffs"]]
        assert data["order"] == 5 and len(coeffs) == 6 and str(coeffs[3]) == "q + q^2"

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "series", "classical_tan", "--order", "5")
        assert code == 0
        assert out.splitlines()[5] == "5: 16"


class TestExportAndCache:
    def test_export_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "a.json"
        code, _, err = run_cli(
            capsys, "export", "A", "--n", "3", "--out", str(out_path)
        )
        assert code == 0 and "wrote" in err
        payload = json.loads(out_path.read_text())
        assert payload["family"] == "A"

    @pytest.mark.parametrize("target", ("missing-dir", "directory"))
    def test_export_unwritable_out_exits_2(self, capsys, tmp_path, monkeypatch, target):
        out_path = tmp_path / "missing" / "a.json" if target == "missing-dir" else tmp_path
        monkeypatch.setattr(cli, "build_family", lambda *args: pytest.fail("table computed"))
        code, out, err = run_cli(capsys, "export", "A", "--n", "2", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(out_path) in err
        assert err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_cache_roundtrip_and_corruption(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code, first, _ = run_cli(
            capsys, "table", "B", "--n", "3", "--format", "json",
            "--cache-dir", str(cache),
        )
        assert code == 0
        cache_file = cache / "B_n3.json"
        assert cache_file.exists()
        code, second, _ = run_cli(
            capsys, "table", "B", "--n", "3", "--format", "json",
            "--cache-dir", str(cache),
        )
        assert second == first
        # flip one byte of the body, keeping it valid JSON: the stamp no
        # longer matches, so the table is recomputed and rewritten
        entry = bytearray(cache_file.read_bytes())
        coeffs = entry.index(b'"coeffs": [', entry.index(b"\n")) + len(b'"coeffs": [')
        at = entry.index(b'"', coeffs) + 1
        entry[at] = ord("7") if entry[at] != ord("7") else ord("8")
        cache_file.write_bytes(bytes(entry))
        code, third, err = run_cli(
            capsys, "table", "B", "--n", "3", "--format", "json",
            "--cache-dir", str(cache),
        )
        assert code == 0 and third == first
        assert "failed validation" in err
        assert cache_file.read_bytes() != bytes(entry)

    def test_cache_write_is_atomic(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        entry = cache / "A_n2.json"

        def failing_write(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            if mode != "wb":
                return handle
            with handle:
                handle.write(b"0123456789")
            raise OSError("disk full")

        def failing_rename(src, dst):
            raise OSError("rename failed")

        body = render(cli.build_family("A", 2), "json").encode("utf-8")
        # the temp file's write fails part way, or its rename into place
        for owner, name, failing in ((cli, "open", failing_write), (os, "replace", failing_rename)):
            # no entry yet: a failed write leaves neither an entry nor a temp file
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, failing, raising=False)
                with pytest.raises(OSError):
                    cli.cache_store(str(cache), "A", 2, "json", body)
            assert list(cache.iterdir()) == []
            # an existing entry survives a failed rewrite byte for byte
            cli.cache_store(str(cache), "A", 2, "json", body)
            before = entry.read_bytes()
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, failing, raising=False)
                with pytest.raises(OSError):
                    cli.cache_store(str(cache), "A", 2, "json", body)
            assert entry.read_bytes() == before
            assert [p.name for p in cache.iterdir()] == ["A_n2.json"]
            assert cli.cache_load(str(cache), "A", 2, "json") == body
            entry.unlink()

    def test_cache_stale_entries_recomputed(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        entry = cache / "A_n3.json"
        argv = ("table", "A", "--n", "3", "--format", "json", "--cache-dir", str(cache))
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_source_fingerprint", lambda: b"other source")
            code, first, _ = run_cli(capsys, *argv)
        stale = entry.read_bytes()
        # written under another source fingerprint: recomputed and rewritten
        code, second, err = run_cli(capsys, *argv)
        assert code == 0 and second == first
        assert "failed validation" in err
        fresh = entry.read_bytes()
        stamp, _, body = fresh.partition(b"\n")
        assert stamp != stale.partition(b"\n")[0] and body == stale.partition(b"\n")[2]
        code, third, err = run_cli(capsys, *argv)
        assert code == 0 and third == first and err == ""
        # an entry in the older wrapper format is recomputed too
        wrapper = {
            "family": "A",
            "n_max": 3,
            "payload": json.loads(body),
            "schema": 1,
            "sha256": hashlib.sha256(body).hexdigest(),
        }
        entry.write_text(json.dumps(wrapper, sort_keys=True))
        code, fourth, err = run_cli(capsys, *argv)
        assert code == 0 and fourth == first
        assert "failed validation" in err
        assert entry.read_bytes() == fresh

    def test_cache_entry_valid_under_its_own_name_only(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code, _, _ = run_cli(capsys, "table", "A", "--n", "3", "--format", "json", "--cache-dir", str(cache))
        assert code == 0
        entry = (cache / "A_n3.json").read_bytes()
        # the A json entry saved as another family's entry, then as another format's
        for family, fmt in (("B", "json"), ("A", "text")):
            argv = ("table", family, "--n", "3", "--format", fmt)
            _, uncached, _ = run_cli(capsys, *argv)
            copy = cache / ("%s_n3.%s" % (family, fmt))
            copy.write_bytes(entry)
            code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache))
            assert code == 0 and out == uncached
            assert "%s failed validation" % copy in err
            # recomputed and rewritten, so the next run is a clean hit
            assert copy.read_bytes() != entry
            code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache))
            assert code == 0 and out == uncached and err == ""

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "envcache"))
        code, _, _ = run_cli(capsys, "table", "Ac", "--n", "2", "--format", "json")
        assert code == 0
        assert (tmp_path / "envcache" / "Ac_n2.json").exists()

    @pytest.mark.parametrize("route", ("flag", "env"))
    @pytest.mark.parametrize("command", ("table", "export"))
    def test_cache_dir_not_a_directory_exits_2(self, capsys, tmp_path, monkeypatch, command, route):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        out_path = tmp_path / "a.json"
        monkeypatch.setattr(cli, "build_family", lambda *args: pytest.fail("table computed"))
        for cache in (not_a_dir, not_a_dir / "sub"):
            argv = [command, "A", "--n", "2"]
            if command == "export":
                argv += ["--out", str(out_path)]
            if route == "flag":
                argv += ["--cache-dir", str(cache)]
            else:
                monkeypatch.setenv(cli.CACHE_ENV, str(cache))
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error:") and str(not_a_dir) in err
            assert not out_path.exists()

    @pytest.mark.parametrize("command", ("table", "export"))
    def test_unwritable_cache_entry_warns(self, capsys, tmp_path, command):
        cache = tmp_path / "cache"
        entry = cache / "A_n3.json"
        entry.mkdir(parents=True)
        out_path = tmp_path / "a.json"
        argv = [command, "A", "--n", "3", "--format", "json", "--cache-dir", str(cache)]
        if command == "export":
            argv += ["--out", str(out_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: cache entry %s not written: " % entry)
        written = out if command == "table" else out_path.read_text()
        assert written == render(cli.build_family("A", 3), "json")
        assert entry.is_dir() and sorted(p.name for p in cache.iterdir()) == ["A_n3.json"]

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(cli.TABLE_FAMILIES), st.integers(0, 6), st.sampled_from(FORMATS))
    def test_cache_store_then_load_roundtrips(self, family, n, fmt):
        body = render(cli.build_family(family, n), fmt).encode("utf-8")
        with tempfile.TemporaryDirectory() as cache:
            cli.cache_store(cache, family, n, fmt, body)
            entry = os.path.join(cache, "%s_n%d.%s" % (family, n, fmt))
            with open(entry, "rb") as handle:
                first = handle.read()
            assert cli.cache_load(cache, family, n, fmt) == body
            cli.cache_store(cache, family, n, fmt, body)
            with open(entry, "rb") as handle:
                assert handle.read() == first

    @pytest.mark.parametrize("family", cli.TABLE_FAMILIES)
    def test_cache_serves_every_format(self, capsysbinary, tmp_path, monkeypatch, family):
        # stdout is captured as bytes, so stdout, the entry body and the
        # exported file are compared byte for byte, newlines included
        plain = {
            fmt: run_cli(capsysbinary, "table", family, "--n", "6", "--format", fmt)[1] for fmt in FORMATS
        }
        for fmt in FORMATS:
            out_path = tmp_path / ("plain." + fmt)
            code, _, _ = run_cli(
                capsysbinary, "export", family, "--n", "6", "--format", fmt, "--out", str(out_path)
            )
            assert code == 0 and out_path.read_bytes() == plain[fmt]
        cache = tmp_path / "cache"
        argv = ("table", family, "--n", "6", "--cache-dir", str(cache))
        real, built = cli.build_family, []
        monkeypatch.setattr(cli, "build_family", lambda *args: built.append(args) or real(*args))
        # json comes first: the later misses build the table again rather
        # than read the entries of the formats before them
        for fmt in FORMATS:
            code, out, err = run_cli(capsysbinary, *argv, "--format", fmt)
            assert code == 0 and out == plain[fmt] and err == b""
            assert built == [(family, 6)]
            built.clear()
            entry = cache / ("%s_n6.%s" % (family, fmt))
            assert entry.read_bytes().partition(b"\n")[2] == out
        names = sorted(p.name for p in cache.iterdir())
        assert names == sorted("%s_n6.%s" % (family, fmt) for fmt in FORMATS)
        # every hit, from table or export, is the stored bytes with no table built
        monkeypatch.setattr(cli, "build_family", lambda *args: pytest.fail("table computed"))
        for fmt in FORMATS:
            code, out, err = run_cli(capsysbinary, *argv, "--format", fmt)
            assert code == 0 and out == plain[fmt] and err == b""
            out_path = tmp_path / ("out." + fmt)
            code, _, _ = run_cli(
                capsysbinary, "export", family, "--n", "6", "--format", fmt, "--out", str(out_path),
                "--cache-dir", str(cache),
            )
            assert code == 0 and out_path.read_bytes() == plain[fmt]

    def test_deterministic_output(self, capsys):
        _, one, _ = run_cli(capsys, "table", "tq", "--n", "5", "--format", "json")
        _, two, _ = run_cli(capsys, "table", "tq", "--n", "5", "--format", "json")
        assert one == two


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "all", "--n", "3", "--order", "4", "--bound-bruteforce", "3", "--format", "text"),
            ("table", "Ac", "--n", "12", "--format", "text"),
            ("series", "tan_q", "--order", "20"),
        ],
        ids=("verify", "table", "series"),
    )
    def test_exits_141_without_traceback(self, argv):
        # stdout is a pipe whose reader has already gone, as under `| head -1`
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}
        env["PYTHONPATH"] = src
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qderiv.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert b"Traceback" not in proc.stderr


# runs one command like `python -m qderiv.cli`, then names on its last
# stderr line every qderiv module it loaded, and dataclasses, hashlib,
# inspect, multiprocessing and concurrent.futures if it loaded them
_LOADED_MODULES = """
import sys
from qderiv import cli
status = cli.main(sys.argv[1:])
sys.stdout.flush()
print(" ".join(sorted(m for m in sys.modules if m.startswith("qderiv") or m in ("dataclasses", "hashlib", "inspect", "multiprocessing", "concurrent.futures"))), file=sys.stderr)
sys.exit(status)
"""

# the package's public names, by the module that defines them
_REEXPORTS = {
    "ring": ("QPoly", "XQPoly", "gauss_binomial", "poly_str", "q_bracket", "q_multinomial",
             "q_pochhammer", "xpoly_str"),
    "series": ("CLASSICAL_MODE", "Q_MODE", "RING_INT", "RING_Q", "RING_XQ", "DividedSeries"),
    "tcomb": ("BruteForceBoundError", "TPermutation"),
    "tables": ("PolyTable",),
    "verify": ("Bounds", "VerificationReport", "run_suite"),
}


def _python(*args):
    env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


class TestImportContract:
    def _run(self, *argv):
        proc = _python("-c", _LOADED_MODULES, *argv)
        return proc.stdout, set(proc.stderr.decode().splitlines()[-1].split())

    def test_cache_hit_loads_no_math_module(self, tmp_path):
        argv = ("table", "A", "--n", "3", "--format", "json", "--cache-dir", str(tmp_path))
        miss_out, miss_loaded = self._run(*argv)
        hit_out, hit_loaded = self._run(*argv)
        assert hit_out == miss_out
        assert "qderiv.tables" in miss_loaded
        math = {"qderiv." + m for m in ("verify", "special", "tables", "tcomb", "permstats", "series", "fixtures")}
        assert not hit_loaded & math
        assert "dataclasses" not in hit_loaded

    def test_series_loads_no_table_code(self):
        out, loaded = self._run("series", "tan_q", "--order", "4")
        assert out.startswith(b"0: ")
        assert "qderiv.series" in loaded
        assert not loaded & {"qderiv." + m for m in ("verify", "special", "tables", "tcomb", "permstats")}
        assert not loaded & {"dataclasses", "hashlib"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "all", "--n", "2", "--order", "2", "--bound-bruteforce", "2"),
            ("table", "Ac", "--n", "3", "--format", "json", "--cache-dir"),
            ("oracle", "A", "--n", "3"),
        ],
        ids=["verify", "table-miss", "oracle"],
    )
    def test_command_loads_no_class_machinery(self, argv, tmp_path):
        # every record is a NamedTuple, so no command needs these modules
        if argv[-1] == "--cache-dir":
            argv += (str(tmp_path),)
        _, loaded = self._run(*argv)
        assert "qderiv.tables" in loaded
        assert not loaded & {"dataclasses", "inspect"}

    def test_verify_loads_no_process_pool(self):
        # run_checks's second lane is one os.fork and a pipe
        _, loaded = self._run("verify", "all", "--n", "2", "--order", "2", "--bound-bruteforce", "2")
        assert "qderiv.verify" in loaded
        assert not loaded & {"multiprocessing", "concurrent.futures"}

    def test_cli_import_loads_only_render_and_ring(self):
        # `import qderiv.cli` is what perfbench's setup_s times; the modules
        # loaded before it are subtracted, because `site` may load some of
        # the heavy ones on its own
        check = """
import sys
before = set(sys.modules)
import qderiv.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""
        added = set(_python("-c", check).stdout.decode().split())
        assert sorted(m for m in added if m.startswith("qderiv")) == [
            "qderiv", "qderiv.cli", "qderiv.render", "qderiv.ring"
        ]
        heavy = {"multiprocessing", "concurrent.futures", "hashlib", "dataclasses", "inspect",
                 "subprocess", "threading"}
        assert not added & heavy

    def test_public_names_are_their_home_modules_objects(self):
        check = """
import importlib, sys
import qderiv
assert sorted(m for m in sys.modules if m.startswith("qderiv")) == ["qderiv"]
from qderiv import QPoly, run_suite
homes = %r
assert sorted(qderiv.__all__) == sorted([n for names in homes.values() for n in names] + ["__version__"])
for home, names in homes.items():
    module = importlib.import_module("qderiv." + home)
    for name in names:
        assert getattr(qderiv, name) is getattr(module, name), name
assert QPoly is qderiv.ring.QPoly and run_suite is qderiv.verify.run_suite
""" % (_REEXPORTS,)
        _python("-c", check)

    def test_unknown_name_raises_attribute_error(self):
        import qderiv

        with pytest.raises(AttributeError):
            qderiv.nope
        with pytest.raises(ImportError):
            from qderiv import nope  # noqa: F401
