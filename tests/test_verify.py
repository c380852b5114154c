import copy
import json
import os
import pickle
import subprocess
import sys
import time

import pytest

from qderiv import permstats, render, special, tables, tcomb, verify
from qderiv.fixtures import DEFAULT_FIXTURES
from qderiv.tcomb import TPermutation
from qderiv.verify import Bounds

SMALL = Bounds(
    series_order=7,
    series_n=3,
    table_n=5,
    rewrite_n=4,
    brute_n=4,
    sweep_n=3,
    perm_sweep_n=4,
    agg_n=4,
    sym_n=4,
    product_n=4,
    alt_inv_n=5,
    alt_imaj_n=5,
    reciprocity_n=7,
    carlitz_n=4,
    refine_n=4,
    diag_n=5,
    tq_n=4,
    springer_n=4,
    alpha_n=6,
    gf_order=5,
    fib_gf_order=8,
    rowsums_n=6,
)


def mutate_poly_fixture(key, cell):
    fixtures = dict(DEFAULT_FIXTURES)
    table = dict(fixtures[key])
    value = table[cell]
    if isinstance(value, tuple):
        perturbed = (value[0] + 1,) + value[1:]
    else:
        perturbed = value + 1
    table[cell] = perturbed
    fixtures[key] = table
    return fixtures


class TestReports:
    def test_report_json_shape(self):
        report = verify.check_table2()
        data = json.loads(report.to_json_line())
        assert data["id"] == "table2"
        assert data["status"] == "pass"
        assert data["first_discrepancy"] is None

    def test_failure_carries_discrepancy(self):
        fixtures = mutate_poly_fixture("table2.a", (3, 1, 1, 1))
        report = verify.check_table2(fixtures)
        assert not report.passed
        d = report.first_discrepancy
        assert d is not None
        assert tuple(d.index) == ("A", 3, 1, 1, 1)
        assert d.expected != d.actual

    def test_series_identity_single(self):
        report = verify.check_expansion("1.9", 3, 8)
        assert report.passed and report.params == {"n": 3, "order": 8}
        with pytest.raises(ValueError):
            verify.check_expansion("1.9", 5, 3)


class TestRegistry:
    def test_all_ids_unique(self):
        ids = [spec.id for spec in verify.CHECKS]
        assert len(set(ids)) == len(ids)
        # a duplicate id would shadow another spec in the lookup
        assert len(verify._BY_ID) == len(verify.CHECKS)

    def test_specs_for(self):
        assert verify.specs_for(["all"]) == verify.CHECKS
        assert [s.id for s in verify.specs_for(["1.9", "table1"])] == ["1.9", "table1"]
        with pytest.raises(KeyError):
            verify.specs_for(["bogus.id"])
        with pytest.raises(ValueError):
            verify.specs_for(["1.9", "all"])

    def test_specs_for_a_bare_string_is_one_id(self):
        assert verify.specs_for("1.9") == (verify._BY_ID["1.9"],)
        assert verify.specs_for("all") == verify.CHECKS
        with pytest.raises(KeyError):
            verify.specs_for("bogus.id")

    def test_run_suite_small_bounds(self):
        reports = verify.run_suite(SMALL)
        assert reports, "suite produced no reports"
        failed = [r for r in reports if not r.passed]
        assert not failed, "\n".join(r.to_json_line() for r in failed)
        assert [r.id for r in reports[:4]] == ["table1", "table2", "table3", "table4"]

    def test_n_override(self):
        reports = verify.run_checks(verify.specs_for(["1.9"]), SMALL, n=1)
        assert [r.params["n"] for r in reports] == [0, 1]

    @pytest.mark.parametrize("carlitz", [None, {}])
    def test_carlitz_fixture_missing_or_empty(self, carlitz):
        fixtures = dict(DEFAULT_FIXTURES)
        if carlitz is None:
            del fixtures["carlitz"]
        else:
            fixtures["carlitz"] = carlitz
        reports = verify.run_checks(verify.specs_for(["9.1", "10.2"]), SMALL, fixtures=fixtures)
        assert [r.id for r in reports] == ["9.1", "10.2"]
        assert reports[0].passed and not reports[1].passed

    def test_raising_check_reports_its_bounds(self, monkeypatch):
        def broken(n):
            raise RuntimeError("oracle unavailable")

        monkeypatch.setattr(verify, "oracle_all", broken)
        (report,) = verify.run_checks(verify.specs_for(["triple.A"]))
        assert report.status == "fail"
        assert list(report.first_discrepancy.index) == ["exception"]
        assert report.params == {"rewrite_n": 10}

    def test_mutated_fixture_fails_exactly_one_check(self):
        fixtures = mutate_poly_fixture("table3", (3, (0, 1, 2)))
        reports = verify.run_suite(SMALL, fixtures=fixtures)
        failed = [r for r in reports if not r.passed]
        assert [r.id for r in failed] == ["table3"]
        assert (0, 1, 2) in tuple(failed[0].first_discrepancy.index)


# one instance of every record type the package declares
_RECORDS = {
    "Table": lambda: render.Table("A", 0, (("n", "int"),), ((0,),)),
    "Discrepancy": lambda: verify.Discrepancy((1,), "0", "1"),
    "VerificationReport": lambda: verify.VerificationReport("1.1", {}, "pass"),
    "Bounds": Bounds,
    "CheckSpec": lambda: verify.CheckSpec("1.1", len, "agg_n"),
    "PolyTable": lambda: tables.a_table(2),
    "DiagonalForms": lambda: special.diagonal_closed_forms(3),
    "WordStats": lambda: permstats.statistics((2, 1, 3)),
    "TPermutation": lambda: TPermutation(((1, 3, 2),)),
}


class TestRecords:
    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_record_is_immutable(self, name):
        record = _RECORDS[name]()
        assert type(record).__name__ == name
        for field in (record._fields[0], record._fields[-1], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, record._fields[0])

    def test_bounds_replace_changes_only_that_field(self):
        base = Bounds()
        changed = base._replace(brute_n=9)
        assert changed.brute_n == 9 != base.brute_n
        assert [f for f in Bounds._fields if getattr(changed, f) != getattr(base, f)] == ["brute_n"]

    def test_t_permutation_copies_and_pickles_through_its_constructor(self):
        w = TPermutation(((), (6,), (4,), (9, 2, 7), (5, 1, 8, 3)))
        assert copy.copy(w) == w and pickle.loads(pickle.dumps(w)) == w
        assert type(pickle.loads(pickle.dumps(w))) is TPermutation


class TestIndividualChecks:
    def test_vacuous_bounds(self):
        assert verify.check_eq_1_17(0).passed
        assert verify.check_9_1(0).passed

    def test_worked_identity_instance(self):
        assert verify.check_eq_1_17(3).passed

    def test_gf_checks(self):
        assert verify.check_bivariate("1.19", 5).passed
        assert verify.check_bivariate("1.20", 5).passed
        assert verify.check_hoffman("1.6", 6).passed
        assert verify.check_hoffman("1.7", 6).passed

    def test_bounds_check(self):
        assert verify.check_table_bounds(6).passed

    def test_q1_bridge(self):
        assert verify.check_q1_bridge(6).passed

    def test_10_5_compares_every_carlitz_coefficient(self, monkeypatch):
        # a Carlitz row that loses its top coefficient fails at that key
        real = special.carlitz_table

        def truncated(n_max):
            rows = list(real(n_max))
            rows[4] = {j: poly for j, poly in rows[4].items() if j < max(rows[4])}
            return tuple(rows)

        monkeypatch.setattr(special, "carlitz_table", truncated)
        report = verify.check_10_5(6)
        assert report.status == "fail"
        assert report.first_discrepancy.index == (4, 3)

    def test_3_bij_walks_each_order_once(self, monkeypatch):
        # |T(n)| is counted during the domain walk of order n; order
        # n_max + 1 is counted from its permutations' valid cuts, so its
        # t-permutations are never built
        real_enumerate, real_walk = verify.enumerate_t_permutations, permstats.walk
        built, walked = [], []

        def recording_enumerate(n, bound=None):
            built.append(n)
            return real_enumerate(n, bound)

        def recording_walk(n, rising=None):
            walked.append(n)
            return real_walk(n, rising)

        monkeypatch.setattr(verify, "enumerate_t_permutations", recording_enumerate)
        monkeypatch.setattr(permstats, "walk", recording_walk)
        assert verify.check_3_bijections(4).passed
        assert built == [0, 1, 2, 3, 4]
        assert walked == [0, 1, 2, 3, 4, 5]


# -- fault injection into the bijection sweeps --------------------------------
#
# Each of 8.2, 3.1 and 3.bij fails under at least one of these faults.
# Each fault fires only on words of one order that start with the letter 3,
# so the worked examples (orders 9 and 11) still pass and the first failure
# lies inside a sweep.  The expected report lines pin the sweep order, the
# report indices and the exception texts.

_real_psi = permstats.psi
_real_star_delta_inv = tcomb.star_delta_inv


def _fires(word, n):
    return len(word) == n and tuple(word[:1]) == (3,)


def _psi_identity(sigma):
    # keeps every descent word; breaks inv = imaj
    return tuple(sigma) if _fires(sigma, 5) else _real_psi(sigma)


def _psi_reversed(sigma):
    # breaks the descent word
    image = _real_psi(sigma)
    return image[::-1] if _fires(sigma, 5) else image


def _delta_star_late(i, w):
    # inserts the letter 1 before component i + 1 instead of i
    shifted = [tuple(y + 1 for y in c) for c in w.components]
    j = i + 1 if _fires(w.word, 4) else i
    return TPermutation(tuple(shifted[:j] + [(1,)] + shifted[j:]))


def _star_delta_inv_off(w):
    i, back = _real_star_delta_inv(w)
    return (i + 1 if _fires(w.word, 5) else i), back


SWEEP_FAULTS = {
    "psi-identity": (permstats, "psi", _psi_identity, {
        "8.2": '{"first_discrepancy": {"actual": "3", "expected": "6", "index": '
        '[5, [[], [3, 1, 2], [5, 4]], "inv=imaj"]}, "id": "8.2", "params": {"n_max": 5}, '
        '"status": "fail"}',
    }),
    "psi-reversed": (permstats, "psi", _psi_reversed, {
        "8.2": '{"first_discrepancy": {"actual": "ValueError(\'component shapes violate the '
        'alternation rules: ((), (5, 4, 2), (1,), (3,), ())\')", "expected": "no exception", '
        '"index": ["exception"]}, "id": "8.2", "params": {"perm_sweep_n": 5}, "status": "fail"}',
    }),
    "delta-star-late": (verify, "delta_star", _delta_star_late, {
        "3.1": '{"first_discrepancy": {"actual": "frozenset({1, 3})", "expected": '
        '"frozenset({3})", "index": ["sweep", 4, [[], [3, 1, 2], [4], []], 1, "delta*", '
        '"iligne"]}, "id": "3.1", "params": {"n_max": 4}, "status": "fail"}',
        "3.bij": '{"first_discrepancy": {"actual": "(2, ((), (3, 1, 2), (4,), ()))", '
        '"expected": "(1, ((), (3, 1, 2), (4,), ()))", "index": [4, "delta*-roundtrip", 1]}, '
        '"id": "3.bij", "params": {"n_max": 4}, "status": "fail"}',
    }),
    "star-delta-inv-off": (verify, "star_delta_inv", _star_delta_inv_off, {
        "3.bij": '{"first_discrepancy": {"actual": "(3, ((), (2, 1, 3), (4,), ()))", '
        '"expected": "(2, ((), (2, 1, 3), (4,), ()))", "index": [4, "*delta-roundtrip", 2]}, '
        '"id": "3.bij", "params": {"n_max": 4}, "status": "fail"}',
    }),
}


class TestSweepFaults:
    @pytest.mark.parametrize("fault", sorted(SWEEP_FAULTS))
    def test_fault_fails_with_recorded_report(self, monkeypatch, fault):
        module, name, fake, expected = SWEEP_FAULTS[fault]
        monkeypatch.setattr(module, name, fake)
        reports = verify.run_checks(
            verify.specs_for(["8.2", "3.1", "3.bij"]), Bounds(sweep_n=4, perm_sweep_n=5)
        )
        failing = {r.id: r.to_json_line() for r in reports if not r.passed}
        assert failing == expected


def _psi_not_a_permutation(sigma):
    # its last letter becomes n + 1
    image = _real_psi(sigma)
    return image[:-1] + (len(image) + 1,) if _fires(sigma, 5) else image


def _psi_greedy_inv(sigma):
    # the permutation with the greedy Lehmer code of inv(psi(sigma)): the
    # right inv, and in general another descent word
    image = _real_psi(sigma)
    if not _fires(sigma, 5):
        return image
    remaining, letters, out = permstats.inv(image), list(range(1, len(image) + 1)), []
    while letters:
        skip = min(remaining, len(letters) - 1)
        out.append(letters.pop(skip))
        remaining -= skip
    return tuple(out)


_real_foata_phi = permstats.foata_phi


def _foata_phi_swapped(word):
    # swaps the first two letters: still a permutation, maj = inv broken
    image = _real_foata_phi(word)
    return image[1::-1] + image[2:] if _fires(word, 5) else image


class TestFastPathFaults:
    """8.2 validates each psi image once per permutation and replays the
    per-cut validating constructor only when that fails; psi is conjugate
    to foata_phi, so a fault in phi fails 8.phi and 8.1 alike; 3.1 compares
    an image's five values at once and replays them one by one on failure."""

    @pytest.mark.parametrize("fake, message", [
        (_psi_not_a_permutation, "concatenation is not a permutation: ((), (3, 1, 2), (4,), (6,), ())"),
        (_psi_greedy_inv, "component shapes violate the alternation rules: ((), (5, 3, 1), (2, 4))"),
    ], ids=["not-a-permutation", "greedy-inv"])
    def test_8_2_falls_back_to_the_validating_constructor(self, monkeypatch, fake, message):
        monkeypatch.setattr(permstats, "psi", fake)
        (report,) = verify.run_checks(verify.specs_for(["8.2"]), Bounds(perm_sweep_n=5))
        assert report.to_json_line() == (
            '{"first_discrepancy": {"actual": "ValueError(\'%s\')", "expected": "no exception", '
            '"index": ["exception"]}, "id": "8.2", "params": {"perm_sweep_n": 5}, "status": "fail"}'
            % message
        )

    def test_a_phi_fault_fails_8_phi_and_8_1(self, monkeypatch):
        monkeypatch.setattr(permstats, "foata_phi", _foata_phi_swapped)
        reports = verify.run_checks(verify.specs_for(["8.phi", "8.1"]), Bounds(perm_sweep_n=5))
        assert [r.to_json_line() for r in reports] == [
            '{"first_discrepancy": {"actual": "2", "expected": "1", "index": '
            '[5, [3, 1, 2, 4, 5], "maj=inv"]}, "id": "8.phi", "params": {"n_max": 5}, "status": "fail"}',
            '{"first_discrepancy": {"actual": "2", "expected": "1", "index": '
            '[5, [2, 3, 1, 4, 5], "inv=imaj"]}, "id": "8.1", "params": {"n_max": 5}, "status": "fail"}',
        ]

    def test_3_1_replays_the_component_of_1(self, monkeypatch):
        # gluing instead of inserting keeps the image word, so only the
        # component holding 1 differs
        monkeypatch.setattr(
            verify,
            "delta_star",
            lambda i, w: tcomb.star_delta(i, w) if _fires(w.word, 4) else tcomb.delta_star(i, w),
        )
        (report,) = verify.run_checks(verify.specs_for(["3.1"]), Bounds(sweep_n=4))
        assert report.to_json_line() == (
            '{"first_discrepancy": {"actual": "0", "expected": "1", "index": ["sweep", 4, '
            '[[], [3, 1, 2], [4], []], 1, "delta*", "min"]}, "id": "3.1", "params": {"n_max": 4}, '
            '"status": "fail"}'
        )


class TestCountingArguments:
    """3.bij and 8.2 keep no images; their counts still catch a missed or
    doubled image."""

    def test_3_bij_partition_catches_a_missing_target(self, monkeypatch):
        real = verify.enumerate_t_permutations

        def skip_first_of_order_4(n, bound=None):
            walk = real(n, bound)
            if n == 4:
                next(walk)
            return walk

        monkeypatch.setattr(verify, "enumerate_t_permutations", skip_first_of_order_4)
        report = verify.check_3_bijections(4)
        assert report.status == "fail"
        assert report.first_discrepancy.index == (4, "partition")

    def test_8_2_bijective_catches_a_shared_image(self, monkeypatch):
        # (3, 4, 1, 2) and (1, 3, 2, 4) share their descent word and imaj,
        # so only the count of distinct psi images can tell them apart
        real = permstats.psi
        shared = real((1, 3, 2, 4))
        monkeypatch.setattr(
            permstats, "psi", lambda sigma: shared if tuple(sigma) == (3, 4, 1, 2) else real(sigma)
        )
        report = verify.check_psi_on_t(5)
        assert report.status == "fail"
        assert report.first_discrepancy.index == (4, "bijective")


def _use_lanes(monkeypatch, lanes):
    """Make run_checks see ``lanes`` CPUs; the list returned collects the
    pid of each child forked."""
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(verify, "_lanes", lambda: lanes)
    monkeypatch.setattr(os, "fork", fork)
    return pids


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.filterwarnings("error::DeprecationWarning")
class TestTwoLanes:
    """With two CPUs, run_checks forks one child for the checks in _FORKED;
    with one it runs every check here.  Both give the same reports."""

    def both(self, monkeypatch, run):
        results = []
        for lanes in (1, 2):
            pids = _use_lanes(monkeypatch, lanes)
            results.append(run())
            assert len(pids) == lanes - 1 and all(map(_reaped, pids))
        assert results[0] == results[1]
        return results[0]

    def test_run_suite_small_bounds(self, monkeypatch):
        reports = self.both(monkeypatch, lambda: verify.run_suite(SMALL))
        assert all(r.passed for r in reports)

    def test_verify_all_json_stdout(self, monkeypatch, capsys):
        from qderiv import cli

        def run():
            code = cli.main(["verify", "all", "--format", "json"])
            return code, capsys.readouterr().out

        code, out = self.both(monkeypatch, run)
        assert code == 0 and len(out.splitlines()) == 93

    def test_mutated_fixture_fails_exactly_one_check(self, monkeypatch):
        fixtures = mutate_poly_fixture("table3", (3, (0, 1, 2)))
        reports = self.both(monkeypatch, lambda: verify.run_suite(SMALL, fixtures=fixtures))
        assert [r.id for r in reports if not r.passed] == ["table3"]

    def test_one_lane_with_work_runs_here(self, monkeypatch):
        for ids in (["3.1", "3.bij"], ["1.9"]):
            pids = _use_lanes(monkeypatch, 2)
            assert all(r.passed for r in verify.run_checks(verify.specs_for(ids), SMALL))
            assert pids == []

    def test_a_failed_fork_runs_every_check_here(self, monkeypatch):
        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        ids = ["1.9", "3.1", "3.bij"]
        _use_lanes(monkeypatch, 1)
        serial = verify.run_checks(verify.specs_for(ids), SMALL)
        _use_lanes(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", fork)
        assert verify.run_checks(verify.specs_for(ids), SMALL) == serial

    def test_an_interrupt_here_kills_and_reaps_the_child(self, monkeypatch):
        pids = _use_lanes(monkeypatch, 2)

        def interrupt(fixtures):
            raise KeyboardInterrupt

        monkeypatch.setattr(verify, "check_3_1", lambda n: time.sleep(60))
        monkeypatch.setattr(verify, "check_table1", interrupt)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            verify.run_checks(verify.specs_for(["table1", "3.1"]))
        assert time.monotonic() - start < 30
        assert len(pids) == 1 and _reaped(pids[0])


# runs `python -m qderiv.cli verify ...` with two lanes, the fault named in
# argv[1] (3.1 kills its process, raises SystemExit or KeyboardInterrupt,
# or the reports' pickle loses its end) and a line left in the stdout
# buffer that the fork copies, then names on its last stderr line each
# forked pid not reaped
_FAULTY_CHILD = """
import os, pickle, signal, sys
from qderiv import cli, verify
real_fork, real_dumps, pids = os.fork, pickle.dumps, []
def fork():
    pid = real_fork()
    pids.append(pid)
    return pid
def fault(n):
    if sys.argv[1] == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise SystemExit(3) if sys.argv[1] == "exit" else KeyboardInterrupt()
os.fork, verify._lanes = fork, lambda: 2
if sys.argv[1] == "truncate":
    pickle.dumps = lambda obj: real_dumps(obj)[:-3]
else:
    verify.check_3_1 = fault
sys.stdout.write("before the fork\\n")
try:
    status = cli.main(sys.argv[2:])
finally:
    sys.stdout.flush()
    left = []
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
            left.append(pid)
        except ChildProcessError:
            pass
    print("forked %d, left %r" % (len(pids), left), file=sys.stderr)
sys.exit(status)
"""


class TestForkedChildFaults:
    @pytest.mark.parametrize("fault, code", [("kill", -9), ("exit", 1), ("interrupt", 1), ("truncate", 0)])
    def test_a_dead_child_fails_its_checks(self, fault, code):
        # buffered, so the line written before the fork is still in the buffer
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(verify.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTY_CHILD, fault, "verify", "1.1", "3.1", "3.bij", "--n", "3"],
            capture_output=True, env=env, timeout=60,
        )
        lost = {
            "actual": "ChildProcessError('check process exited with code %d without its reports')" % code,
            "expected": "no exception",
            "index": ["exception"],
        }
        first, *lines = proc.stdout.splitlines()
        assert first == b"before the fork"
        assert [json.loads(line) for line in lines] == [
            {"id": "1.1", "params": {"order": 9}, "status": "pass", "first_discrepancy": None},
            {"id": "3.1", "params": {"sweep_n": 3}, "status": "fail", "first_discrepancy": lost},
            {"id": "3.bij", "params": {"sweep_n": 3}, "status": "fail", "first_discrepancy": lost},
        ]
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.decode().splitlines() == ["forked 1, left []"]
