import copy
import hashlib
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import time
from collections import Counter

import pytest

from qderiv import permstats, render, special, tables, tcomb, verify
from qderiv.fixtures import DEFAULT_FIXTURES
from qderiv.ring import QPoly
from qderiv.series import DividedSeries
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

    def test_failure_carries_discrepancy(self, monkeypatch):
        monkeypatch.setattr(verify, "DEFAULT_FIXTURES", mutate_poly_fixture("table2.a", (3, 1, 1, 1)))
        report = verify.check_table2()
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


# check_expansion(id, 3, 10) when the first term built gains 1 in its
# coefficient 7 = order - n, the last one compared: (index, sha256 of the
# report's JSON line), recorded before the terms were built at order - n
_TERM_FAULT_REPORTS = {
    "1.9": (("1.9", 3, 7), "dc76b2b79cedeaefc6da71ca8f573332840c2664eabb8a69eedd6c2062c57329"),
    "1.11": (("1.11", 3, 7), "965e0bdd453f0808dc34e9152c9cad3b557fbe38d542efc5a600152fbd2fbba9"),
    "1.12": (("1.12", 3, 7), "2bb9216d5d06e9400760add44dc70f993d5514a0e5af9ad49303255afeabdc40"),
    "1.14": (("1.14", 3, 7), "2652ff1450787536e50c9766d31905c29c04fa63788e1b67ba50cb978b17c116"),
    "1.15": (("1.15", 3, 7), "dc34974f01b01ed8e90127ce2c734a9e424760865ea0f3c2067268c8669691d2"),
    "1.16": (("1.16", 3, 7), "400f7ecc543e4f63e2714d7700a96792f08186a6607cd2b2fc3658fd809ec4db"),
}


class TestSeriesExpansions:
    """check_expansion builds its terms at order - n, the coefficients it
    compares, and reports as it did when it built them at the full order."""

    @pytest.mark.parametrize("check_id", sorted(verify._EXPANSIONS))
    def test_terms_are_built_at_the_compared_order(self, check_id, monkeypatch):
        spec, orders = verify._EXPANSIONS[check_id], []

        def recording(n, key, order):
            orders.append((n, order))
            return spec.term(n, key, order)

        monkeypatch.setitem(verify._EXPANSIONS, check_id, spec._replace(term=recording))
        for n in range(7):
            assert verify.check_expansion(check_id, n, 10).passed
        assert orders and all(order == 10 - n for n, order in orders)

    @pytest.mark.parametrize("check_id", sorted(_TERM_FAULT_REPORTS))
    def test_a_fault_in_the_last_compared_coefficient_reports_as_before(
        self, check_id, monkeypatch
    ):
        spec, faulted = verify._EXPANSIONS[check_id], []

        def faulty(n, key, order):
            term = spec.term(n, key, order)
            if faulted:
                return term
            faulted.append(key)
            coeffs = list(term.coeffs)
            coeffs[10 - n] = coeffs[10 - n] + 1
            return DividedSeries(term.mode, term.ring, coeffs)

        monkeypatch.setitem(verify._EXPANSIONS, check_id, spec._replace(term=faulty))
        report = verify.check_expansion(check_id, 3, 10)
        index, digest = _TERM_FAULT_REPORTS[check_id]
        assert report.status == "fail" and tuple(report.first_discrepancy.index) == index
        assert hashlib.sha256(report.to_json_line().encode()).hexdigest() == digest

    @pytest.mark.parametrize("check_id", ["1.12", "1.16"])
    def test_a_coefficient_above_the_reversal_degree_is_reported(self, check_id, monkeypatch):
        # every row-3 coefficient gains q^4, above the reversal degree 3
        spec, real = verify._EXPANSIONS[check_id], verify._table

        def raised(kind, n_max):
            table = real(kind, n_max)
            rows = list(table.rows)
            rows[3] = {key: poly + QPoly.monomial(4) for key, poly in rows[3].items()}
            return table._replace(rows=tuple(rows))

        monkeypatch.setattr(verify, "_table", raised)
        report = verify.check_expansion(check_id, 3, 10)
        first = next(k for k in real(spec.kind, 3).row(3) if not spec.s_only or k[-1] == 0)
        assert report.status == "fail"
        assert report.first_discrepancy == verify.Discrepancy(
            (check_id, 3, "reversal", first), "3", "4"
        )


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

    @pytest.mark.parametrize("ids, bounds, n", [
        (["1.1", "8.phi", "8.1", "8.2"], None, 9),
        (["1.1", "8.2"], Bounds(perm_sweep_n=9), None),
        (["all"], None, 9),
        (["1.1", "3.1", "triple.A"], Bounds(brute_n=11), None),
    ])
    def test_an_n_above_a_memory_limit_raises_before_any_check_runs_or_forks(self, monkeypatch, ids, bounds, n):
        def never(*args):
            raise AssertionError("ran past the bounds check")

        monkeypatch.setattr(verify, "_lanes", lambda: 2)
        monkeypatch.setattr(os, "fork", never)
        monkeypatch.setattr(verify, "_run_guarded", never)
        with pytest.raises(verify.InvalidBoundsError, match=r"needs n <= (8|10) \(the largest n whose"):
            verify.run_checks(verify.specs_for(ids), bounds, n=n)

    def test_the_memory_limits_admit_their_own_n_and_the_defaults(self):
        for check_id, (field, limit, _) in verify._N_LIMITS.items():
            spec = verify._BY_ID[check_id]
            if check_id.startswith("triple."):
                # --bound-bruteforce, not --n, is capped for the triple checks
                assert field == "brute_n"
                assert verify.adjusted_bounds(Bounds(brute_n=limit), spec).brute_n == limit
                with pytest.raises(verify.InvalidBoundsError):
                    verify.adjusted_bounds(Bounds(brute_n=limit + 1), spec)
                continue
            assert getattr(verify.adjusted_bounds(Bounds(), spec, n=limit), spec.n_field) == limit
            with pytest.raises(verify.InvalidBoundsError):
                verify.adjusted_bounds(Bounds(), spec, n=limit + 1)
        for spec in verify.CHECKS:
            verify.adjusted_bounds(Bounds(), spec)

    # the CI steps that run_suite(DEEP) replaced: (check ids, flag, bound)
    _REPLACED_STEPS = [
        ("3.1 3.bij", "--n", 7),
        ("8.phi 8.1 8.2 7.rhogamma", "--n", 8),
        ("7.1 7.imaj", "--n", 12),
        ("9.1 1.17 1.18 10.6.alpha tables.bounds", "--n", 14),
        ("triple.A triple.B triple.Ac", "--bound-bruteforce", 9),
        ("triple.A triple.B triple.Ac", "--n", 14),
        ("1.9 1.11 1.12 1.14 1.15 1.16 2.3 2.4 2.5 2.tan", "--order", 14),
    ]

    @pytest.mark.parametrize("ids, flag, bound", _REPLACED_STEPS)
    def test_deep_runs_each_check_at_least_at_the_bound_of_the_step_it_replaced(self, ids, flag, bound):
        for spec in verify.specs_for(ids.split()):
            field = {"--n": spec.n_field, "--order": spec.order_field, "--bound-bruteforce": "brute_n"}[flag]
            assert getattr(verify.DEEP, field) >= bound, (spec.id, field)

    def test_deep_is_no_lower_than_the_defaults_and_within_every_limit(self):
        for field, default in Bounds()._asdict().items():
            assert getattr(verify.DEEP, field) >= default, field
        for spec in verify.CHECKS:
            verify.adjusted_bounds(verify.DEEP, spec)

    @pytest.mark.parametrize("n", [11, 101])
    def test_rho_gamma_takes_an_n_past_its_old_image_limit(self, n):
        # the round trip keeps no image; adjusted_bounds runs no check
        spec = verify._BY_ID["7.rhogamma"]
        assert verify.adjusted_bounds(Bounds(), spec, n=n).perm_sweep_n == n

    @pytest.mark.parametrize("check_id", ["3.1", "3.bij", "10.7", "10.8", "10.tq", "triple.A"])
    def test_the_walks_that_hold_little_take_any_n(self, check_id):
        spec = verify._BY_ID[check_id]
        assert getattr(verify.adjusted_bounds(Bounds(), spec, n=100000), spec.n_field) == 100000

    @pytest.mark.parametrize("carlitz", [None, {}])
    def test_carlitz_fixture_missing_or_empty(self, monkeypatch, carlitz):
        fixtures = dict(DEFAULT_FIXTURES)
        if carlitz is None:
            del fixtures["carlitz"]
        else:
            fixtures["carlitz"] = carlitz
        monkeypatch.setattr(verify, "DEFAULT_FIXTURES", fixtures)
        reports = verify.run_checks(verify.specs_for(["9.1", "10.2"]), SMALL)
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

    def test_mutated_fixture_fails_exactly_one_check(self, monkeypatch):
        monkeypatch.setattr(verify, "DEFAULT_FIXTURES", mutate_poly_fixture("table3", (3, (0, 1, 2))))
        reports = verify.run_suite(SMALL)
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

    def test_the_default_brute_n_is_the_oracle_default(self):
        # `qderiv oracle` and `qderiv verify` walk to the same default order
        code = (
            "from qderiv import tcomb\n"
            "tcomb.BRUTE_FORCE_BOUND = 7\n"
            "from qderiv.verify import Bounds\n"
            "assert Bounds().brute_n == 7, Bounds().brute_n\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(verify.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()

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

    def test_7_1_and_7_imaj_share_one_tally(self, monkeypatch):
        # one tally per (n, rising) gives inv and imaj for both checks
        real_tally, tallied = permstats.alternating_tally, []

        def recording_tally(n, rising):
            tallied.append((n, rising))
            return real_tally(n, rising)

        monkeypatch.setattr(permstats, "alternating_tally", recording_tally)
        verify._alternating_polys.cache_clear()
        try:
            assert verify.check_alternating("7.1", 6).passed
            assert verify.check_alternating("7.imaj", 5).passed
        finally:
            verify._alternating_polys.cache_clear()
        assert tallied == [(n, rising) for n in range(7) for rising in (True, False)]

    def test_3_bij_walks_each_order_once(self, monkeypatch):
        # |T(n)| is counted during the domain walk of order n; order
        # n_max + 1 is counted from its permutations' valid cuts, so its
        # t-permutations are never built
        real_cuts, real_walk = verify.t_permutation_cuts, permstats.walk
        built, walked = [], []

        def recording_cuts(n):
            built.append(n)
            return real_cuts(n)

        def recording_walk(n, rising=None):
            walked.append(n)
            return real_walk(n, rising)

        monkeypatch.setattr(verify, "t_permutation_cuts", recording_cuts)
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
_real_insert_one, _real_remove_one = tcomb._insert_one, tcomb._remove_one


def _fires(word, n):
    return len(word) == n and tuple(word[:1]) == (3,)


def _fires_shifted(shifted, n):
    # the insertion step gets w's word with every letter raised by one
    return _fires(tuple(y - 1 for y in shifted), n)


def _psi_identity(sigma):
    # keeps every descent word; breaks inv = imaj
    return tuple(sigma) if _fires(sigma, 5) else _real_psi(sigma)


def _psi_reversed(sigma):
    # breaks the descent word
    image = _real_psi(sigma)
    return image[::-1] if _fires(sigma, 5) else image


def _insert_late(i, shifted, parts):
    # inserts the letter 1 at component i + 1 instead of i
    return _real_insert_one(i + 1 if _fires_shifted(shifted, 4) else i, shifted, parts)


def _remove_second_off(word, parts, first_kind):
    # the second-kind removal gives back the wrong index
    i, back, back_parts = _real_remove_one(word, parts, first_kind)
    return (i + 1 if not first_kind and _fires(word, 5) else i), back, back_parts


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
    "delta-star-late": (tcomb, "_insert_one", _insert_late, {
        "3.1": '{"first_discrepancy": {"actual": "frozenset({1, 3})", "expected": '
        '"frozenset({3})", "index": ["sweep", 4, [[], [3, 1, 2], [4], []], 1, "delta*", '
        '"iligne"]}, "id": "3.1", "params": {"n_max": 4}, "status": "fail"}',
        "3.bij": '{"first_discrepancy": {"actual": "(2, ((), (3, 1, 2), (4,), ()))", '
        '"expected": "(1, ((), (3, 1, 2), (4,), ()))", "index": [4, "delta*-roundtrip", 1]}, '
        '"id": "3.bij", "params": {"n_max": 4}, "status": "fail"}',
    }),
    "star-delta-inv-off": (tcomb, "_remove_one", _remove_second_off, {
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
    an image's five values at once and, on a mismatch, reports the first
    that differs."""

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
        glue_for_delta_star = _insert_fault(lambda i, word, d, s: (word, s, s))
        monkeypatch.setattr(tcomb, "_insert_one", glue_for_delta_star)
        (report,) = verify.run_checks(verify.specs_for(["3.1"]), Bounds(sweep_n=4))
        assert report.to_json_line() == (
            '{"first_discrepancy": {"actual": "0", "expected": "1", "index": ["sweep", 4, '
            '[[], [3, 1, 2], [4], []], 1, "delta*", "min"]}, "id": "3.1", "params": {"n_max": 4}, '
            '"status": "fail"}'
        )


def _insert_fault(change):
    """The insertion step, with ``change(i, word, d, s)`` giving the images
    (the word, delta* parts d and *delta parts s) of the permutations of
    order 4 that start with 3."""

    def insert(i, shifted, parts):
        image = _real_insert_one(i, shifted, parts)
        return change(i, *image) if _fires_shifted(shifted, 4) else image

    return insert


def _insert_raises(i, shifted, parts):
    if _fires_shifted(shifted, 4):
        raise ArithmeticError("insertion failed")
    return _real_insert_one(i, shifted, parts)


def _remove_late(word, parts, first_kind):
    # second kind: the block of 1 is split one letter late
    if first_kind or not _fires(word, 5):
        return _real_remove_one(word, parts, first_kind)
    a, j = tcomb._one_at(word, parts)
    back = tuple(y - 1 for y in word if y != 1)
    return a + 1, back, parts[:a] + (j + 1, parts[a] - 2 - j) + parts[a + 1 :]


def _remove_raises(word, parts, first_kind):
    if not first_kind and _fires(word, 5):
        raise ValueError("removal failed")
    return _real_remove_one(word, parts, first_kind)


def _remove_first_off(word, parts, first_kind):
    # the first-kind removal gives back the wrong index
    i, back, back_parts = _real_remove_one(word, parts, first_kind)
    return (i + 1 if first_kind and _fires(word, 5) else i), back, back_parts


_real_inv, _real_cuts, _real_is_t = permstats.inv, verify.t_permutation_cuts, tcomb.is_t_composition


def _inv_off(word):
    return _real_inv(word) + _fires(word, 5)


def _walk_fault(change):
    """t_permutation_cuts with ``change(sigma, parts list)`` applied to the
    permutations of order 4."""

    def cuts(n):
        for sigma, ws in _real_cuts(n):
            if n == 4:
                sigma, parts = change(sigma, [w.parts for w in ws])
                ws = tuple(TPermutation._flat(sigma, p, check=False) for p in parts)
            yield sigma, ws

    return cuts


def _raise_top(sigma, parts):
    # the largest letter raised by one: not a permutation
    if not _fires(sigma, 4):
        return sigma, parts
    return tuple(y + 1 if y == len(sigma) else y for y in sigma), parts


def _overrun(sigma, parts):
    # the first cut ending in 0 gains a one-letter block past the word
    if not _fires(sigma, 4):
        return sigma, parts
    k = next(k for k, p in enumerate(parts) if p[-1] == 0 and len(p) > 1)
    return sigma, parts[:k] + [parts[k][:-1] + (1, 0)] + parts[k + 1 :]


def _underrun(sigma, parts):
    # a last block of two letters or more loses two, so the cut is short
    k = next((k for k, p in enumerate(parts) if p[-1] >= 2 and len(p) > 1), None)
    if k is None:
        return sigma, parts
    return sigma, parts[:k] + [parts[k][:-1] + (parts[k][-1] - 2,)] + parts[k + 1 :]


def _bad_shape(sigma, parts):
    # the first cut becomes (n, 0), not alternating on these permutations
    if not _fires(sigma, 4):
        return sigma, parts
    return sigma, [(len(sigma), 0)] + parts[1:]


def _raised(check_id, exception):
    return (
        '{"first_discrepancy": {"actual": %s, "expected": "no exception", '
        '"index": ["exception"]}, "id": "%s", "params": {"sweep_n": 4}, "status": "fail"}'
        % (json.dumps(exception), check_id)
    )


def _both_raise(exception):
    return [_raised(check_id, exception) for check_id in ("3.1", "3.bij")]


_OVERRUN = "ValueError('block lengths (0, 1, 3, 1, 1, 0) do not cut a word of length 5')"

# Faults in the insertion and removal steps, in the t-permutation walk, in
# the statistics and in the t-composition test, each with the 3.1 and 3.bij
# reports that the validating constructor's path gives under the same
# fault: each fast test on its own is the first to see one of them.
_FLAT_STEP_FAULTS = {
    # the inserted letter is 2, not 1
    "word-not-a-permutation": ([(tcomb, "_insert_one", _insert_fault(
        lambda i, word, d, s: (tuple(2 if y == 1 else y for y in word), d, s)
    ))], _both_raise(
        "ValueError('concatenation is not a permutation: ((), (2,), (4, 2, 3), (5,), ())')"
    )),
    # delta*: the block after the 1 grows by one
    "cut-overruns-the-word": ([(tcomb, "_insert_one", _insert_fault(
        lambda i, word, d, s: (word, d[: i + 1] + (d[i + 1] + 1,) + d[i + 2 :], s)
    ))], _both_raise(
        "ValueError('block lengths (0, 1, 4, 1, 0) do not cut a word of length 5')"
    )),
    # delta*: a one-letter block past the word's end, which only the length test sees
    "cut-past-the-word": ([(tcomb, "_insert_one", _insert_fault(
        lambda i, word, d, s: (word, d[:-1] + (1, d[-1]), s)
    ))], _both_raise(_OVERRUN)),
    # delta*: the one-letter block 1 is cut before block i - 1, not after it
    "cut-not-alternating": ([(tcomb, "_insert_one", _insert_fault(
        lambda i, word, d, s: (word, d[: i - 1] + (1, d[i - 1]) + d[i + 1 :], s)
    ))], _both_raise(
        "ValueError('component shapes violate the alternation rules: ((1,), (), (4, 2, 3), (5,), ())')"
    )),
    # *delta inserts instead of gluing: a first-kind image, 1 in block i
    "glue-inserts": ([(tcomb, "_insert_one", _insert_fault(
        lambda i, word, d, s: (word, d, d)
    ))], [
        '{"first_discrepancy": {"actual": "1", "expected": "0", "index": ["sweep", 4, '
        '[[], [3, 1, 2], [4], []], 1, "*delta", "min"]}, "id": "3.1", "params": {"n_max": 4}, '
        '"status": "fail"}',
        '{"first_discrepancy": {"actual": "violated", "expected": "condition", "index": '
        '[4, "second-kind", [[], [1], [4, 2, 3], [5], []]]}, "id": "3.bij", "params": {"n_max": 4}, '
        '"status": "fail"}',
    ]),
    "insertion-raises": ([(tcomb, "_insert_one", _insert_raises)], _both_raise(
        "ArithmeticError('insertion failed')"
    )),
    "removal-splits-late": ([(tcomb, "_remove_one", _remove_late)], [
        '{"first_discrepancy": null, "id": "3.1", "params": {"n_max": 4}, "status": "pass"}',
        _raised("3.bij", "ValueError('component shapes violate the alternation rules: "
                "((), (2, 1, 3, 4), (), ())')"),
    ]),
    "removal-first-kind-off": ([(tcomb, "_remove_one", _remove_first_off)], [
        '{"first_discrepancy": null, "id": "3.1", "params": {"n_max": 4}, "status": "pass"}',
        '{"first_discrepancy": {"actual": "(3, ((), (2, 1, 3), (4,), ()))", "expected": '
        '"(2, ((), (2, 1, 3), (4,), ()))", "index": [4, "delta*-roundtrip", 2]}, "id": "3.bij", '
        '"params": {"n_max": 4}, "status": "fail"}',
    ]),
    # the second-kind removal raises: not a kind failure, so it propagates
    "removal-raises": ([(tcomb, "_remove_one", _remove_raises)], [
        '{"first_discrepancy": null, "id": "3.1", "params": {"n_max": 4}, "status": "pass"}',
        _raised("3.bij", "ValueError('removal failed')"),
    ]),
    "image-inv-off": ([(permstats, "inv", _inv_off)], [
        '{"first_discrepancy": {"actual": "5", "expected": "4", "index": ["sweep", 4, '
        '[[], [2, 1, 3], [4], []], 2, "delta*", "inv"]}, "id": "3.1", "params": {"n_max": 4}, '
        '"status": "fail"}',
        '{"first_discrepancy": null, "id": "3.bij", "params": {"n_max": 4}, "status": "pass"}',
    ]),
    "walk-not-a-permutation": ([(verify, "t_permutation_cuts", _walk_fault(_raise_top))], _both_raise(
        "ValueError('concatenation is not a permutation: ((), (1,), (4, 2, 3), (6,), ())')"
    )),
    "walk-past-the-word": (
        [(verify, "t_permutation_cuts", _walk_fault(_overrun))], _both_raise(_OVERRUN)
    ),
    "walk-short-of-the-word": ([(verify, "t_permutation_cuts", _walk_fault(_underrun))], _both_raise(
        "ValueError('block lengths (2, 1, 0) do not cut a word of length 5')"
    )),
    "walk-not-alternating": ([(verify, "t_permutation_cuts", _walk_fault(_bad_shape))], _both_raise(
        "ValueError('component shapes violate the alternation rules: ((4, 2, 3, 5), (1,), ())')"
    )),
    "no-single-part": ([(tcomb, "is_t_composition", lambda p: len(p) != 1 and _real_is_t(p))], [
        _raised("3.1", "ValueError('component shapes violate the alternation rules: ((2, 3, 1),)')"),
        _raised("3.bij", "ValueError('component shapes violate the alternation rules: ((1,),)')"),
    ]),
    "no-second-part-1": ([(tcomb, "is_t_composition", lambda p: p[1:2] != (1,) and _real_is_t(p))], [
        _raised("3.1", "ValueError('component shapes violate the alternation rules: "
                "((5, 6), (1,), (12, 2, 4), (11, 8, 10), (7,), (9, 3))')"),
        _raised("3.bij", "ValueError('component shapes violate the alternation rules: ((), (1,), ())')"),
    ]),
}


class TestFlatStepFaults:
    """3.1 and 3.bij check flat (word, parts) pairs, each image word
    validated once, and report from the first failing test, calling the
    validating constructor only where a cut test fails; under each fault
    the reports are the ones the validating constructor's path gives, on
    both lane paths."""

    @pytest.mark.parametrize("check", [verify.check_3_1, verify.check_3_bijections])
    def test_a_passing_sweep_validates_each_word_once_and_replays_nothing(self, monkeypatch, check):
        real_post_init, real_descent_word = TPermutation.__post_init__, permstats.descent_word
        validated, words = [], []

        def recording_post_init(self):
            validated.append(self.word)
            return real_post_init(self)

        def recording_descent_word(word):
            words.append(word)
            return real_descent_word(word)

        monkeypatch.setattr(TPermutation, "__post_init__", recording_post_init)
        monkeypatch.setattr(permstats, "descent_word", recording_descent_word)
        assert check(5).passed
        # only 3.1's worked example and its images, of order 11 and 12, go
        # through the validating constructor
        assert all(len(word) > 6 for word in validated)
        swept = [word for word in words if len(word) <= 6]
        assert swept and len(swept) == len(set(swept))

    @pytest.mark.parametrize("fault", sorted(_FLAT_STEP_FAULTS))
    @pytest.mark.parametrize("lanes", [1, 2])
    def test_fault_gives_the_validating_report(self, monkeypatch, fault, lanes):
        patches, expected = _FLAT_STEP_FAULTS[fault]
        _use_lanes(monkeypatch, lanes)
        try:
            for module, name, fake in patches:
                monkeypatch.setattr(module, name, fake)
            # the cut test's cache would hide a fault in is_t_composition
            tcomb._is_valid_cut.cache_clear()
            reports = verify.run_checks(verify.specs_for(["1.1", "3.1", "3.bij"]), Bounds(sweep_n=4))
        finally:
            monkeypatch.undo()
            tcomb._is_valid_cut.cache_clear()
        assert [r.to_json_line() for r in reports[1:]] == expected


class TestCountingArguments:
    """3.bij and 8.2 keep no images; their counts still catch a missed or
    doubled image."""

    def test_3_bij_partition_catches_a_missing_target(self, monkeypatch):
        real = verify.t_permutation_cuts

        def skip_first_of_order_4(n):
            walk = real(n)
            if n == 4:
                sigma, cuts = next(walk)
                walk = itertools.chain([(sigma, cuts[1:])], walk)
            return walk

        monkeypatch.setattr(verify, "t_permutation_cuts", skip_first_of_order_4)
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

    def test_7_rhogamma_round_trip_catches_a_shared_image(self, monkeypatch):
        # (1, 4, 3, 5, 2) and (1, 5, 2, 4, 3) are rising alternating with inv
        # 4, so the shared image is falling and keeps inv; only mapping it
        # back tells the two apart
        real = permstats.mirror_rho
        first, second = (1, 4, 3, 5, 2), (1, 5, 2, 4, 3)
        shared = real(permstats.complement_gamma(first))
        moved = permstats.complement_gamma(second)
        monkeypatch.setattr(permstats, "mirror_rho", lambda w: shared if tuple(w) == moved else real(w))
        report = verify.check_rho_gamma(5)
        assert report.status == "fail"
        assert report.first_discrepancy == verify.Discrepancy(
            (5, second, "involution"), str(second), str(first)
        )

    def test_7_rhogamma_counts_fa_n_without_walking_it(self, monkeypatch):
        # |FA_n| comes from the falling tally, so no falling walk is run
        real = permstats.walk

        def rising_only(n, rising=None):
            if rising is False:
                raise AssertionError("walked FA_%d" % n)
            return real(n, rising)

        monkeypatch.setattr(permstats, "walk", rising_only)
        assert verify.check_rho_gamma(7).status == "pass"


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
    """With two CPUs, run_checks forks one child for the checks that share
    a pass (_SWEEP_BODIES); with one it runs every check here.  Both give
    the same reports."""

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
        monkeypatch.setattr(verify, "DEFAULT_FIXTURES", mutate_poly_fixture("table3", (3, (0, 1, 2))))
        reports = self.both(monkeypatch, lambda: verify.run_suite(SMALL))
        assert [r.id for r in reports if not r.passed] == ["table3"]

    def test_one_lane_with_work_runs_here(self, monkeypatch):
        for ids in (["3.1", "3.bij"], ["1.9"], ["8.phi", "8.1"]):
            pids = _use_lanes(monkeypatch, 2)
            assert all(r.passed for r in verify.run_checks(verify.specs_for(ids), SMALL))
            assert pids == []

    def test_the_8x_sweeps_fork_once_beside_7_rhogamma(self, monkeypatch, capsys):
        from qderiv import cli

        pids = _use_lanes(monkeypatch, 2)
        assert cli.main(["verify", "8.phi", "8.1", "8.2", "7.rhogamma", "--n", "5"]) == 0
        assert len(pids) == 1 and _reaped(pids[0])
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["id"], r["status"]) for r in lines] == [
            ("8.phi", "pass"), ("8.1", "pass"), ("8.2", "pass"), ("7.rhogamma", "pass")
        ]

    def test_a_fault_in_the_forked_8_2_gives_the_serial_report(self, monkeypatch):
        monkeypatch.setattr(permstats, "psi", _psi_identity)
        reports = self.both(
            monkeypatch,
            lambda: verify.run_checks(verify.specs_for(["7.rhogamma", "8.2"]), Bounds(perm_sweep_n=5)),
        )
        assert [r.to_json_line() for r in reports if not r.passed] == [
            SWEEP_FAULTS["psi-identity"][3]["8.2"]
        ]

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

        def interrupt():
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


# -- the fused sweeps ------------------------------------------------------
#
# 3.1 and 3.bij share one pass over the pairs (w, i), and 8.phi, 8.1 and 8.2
# one walk of S_n.  Each fault below breaks only one check's comparison; its
# report was recorded when each check swept on its own.  The 8.x faults fire
# on order 5 and the 3.x faults on images of order 5, so the bounds keep
# the other sweep below that order.

_FUSED_IDS = ["1.1", "3.1", "3.bij", "8.phi", "8.1", "8.2"]
_AT_8 = Bounds(sweep_n=3, perm_sweep_n=5)
_AT_3 = Bounds(sweep_n=4, perm_sweep_n=4)


def _psi_by_the_real_phi(sigma):
    return permstats.inverse(_real_foata_phi(permstats.inverse(sigma)))


# two permutations with one imaj and one set of valid cuts but not one
# descent word: swapping their psi images breaks ligne, which 8.1 compares,
# and nothing that 8.2 compares on T(5)
_PSI_SWAP = {(1, 2, 4, 5, 3): (3, 4, 5, 2, 1), (3, 4, 5, 2, 1): (1, 2, 4, 5, 3)}


def _psi_swapped(sigma):
    return _real_psi(_PSI_SWAP.get(tuple(sigma), sigma))


def _psi_letters_raised(sigma):
    # keeps the descent word, inv and distinct images; not a permutation
    image = _real_psi(sigma)
    return tuple(y + 10 for y in image) if _fires(sigma, 5) else image


FUSED_FAULTS = {
    # phi breaks maj = inv; psi is built on the real phi
    "8.phi": ([(permstats, "foata_phi", _foata_phi_swapped), (permstats, "psi", _psi_by_the_real_phi)], _AT_8,
              '{"first_discrepancy": {"actual": "2", "expected": "1", "index": [5, [3, 1, 2, 4, 5], "maj=inv"]}, '
              '"id": "8.phi", "params": {"n_max": 5}, "status": "fail"}'),
    "8.1": ([(permstats, "psi", _psi_swapped)], _AT_8,
            '{"first_discrepancy": {"actual": "frozenset({3, 4})", "expected": "frozenset({4})", "index": '
            '[5, [1, 2, 4, 5, 3], "ligne"]}, "id": "8.1", "params": {"n_max": 5}, "status": "fail"}'),
    "8.2": ([(permstats, "psi", _psi_letters_raised)], _AT_8,
            '{"first_discrepancy": {"actual": "ValueError(\'concatenation is not a permutation: ((), (13, 11, 12), '
            '(14,), (15,), ())\')", "expected": "no exception", "index": ["exception"]}, "id": "8.2", '
            '"params": {"perm_sweep_n": 5}, "status": "fail"}'),
    "3.1": ([(permstats, "inv", _inv_off)], _AT_3, _FLAT_STEP_FAULTS["image-inv-off"][1][0]),
    "3.bij": ([(tcomb, "_remove_one", _remove_first_off)], _AT_3, _FLAT_STEP_FAULTS["removal-first-kind-off"][1][1]),
}


def _psi_raises(sigma):
    if _fires(sigma, 5):
        raise ArithmeticError("psi failed")
    return _real_psi(sigma)


def _foata_phi_swapped_at_4(word):
    image = _real_foata_phi(word)
    return image[1::-1] + image[2:] if _fires(word, 4) else image


def _psi_swapped_and_raised(sigma):
    # the 8.1 and the 8.2 fault at once, built on the real phi
    image = _psi_by_the_real_phi(_PSI_SWAP.get(tuple(sigma), sigma))
    return tuple(y + 10 for y in image) if _fires(sigma, 5) else image


_real_walk = permstats.walk


def _walk_repeats(n, rising=None):
    # one permutation of order 5 twice: n! distinct images of n! + 1 walked
    for row in _real_walk(n, rising):
        yield row
        if n == 5 and row[0] == (3, 1, 2, 4, 5):
            yield row


def _foata_phi_reverse_complemented(word):
    # reverse-complement keeps inv and is a bijection of S_4, so of 8.phi's
    # tests only iligne sees it
    image = _real_foata_phi(word)
    return tuple(5 - y for y in reversed(image)) if len(image) == 4 else image


def _walk_of_s4_raises(n, rising=None):
    # the walk of S_4 raises; the alternating walks (rising set) do not
    if n == 4 and rising is None:
        raise ArithmeticError("walk failed")
    return _real_walk(n, rising)


# several checks' faults at once, with each check's report recorded when it
# swept alone: 8.phi stops at order 4, before 8.1 and 8.2 stop at order 5,
# and 3.1 and 3.bij stop at the same image, 3.1 first
_SEVERAL_FAULTS = {
    "8.x": ([(permstats, "foata_phi", _foata_phi_swapped_at_4), (permstats, "psi", _psi_swapped_and_raised)], _AT_8, {
        "8.phi": '{"first_discrepancy": {"actual": "2", "expected": "1", "index": [4, [3, 1, 2, 4], "maj=inv"]}, '
                 '"id": "8.phi", "params": {"n_max": 5}, "status": "fail"}',
        "8.1": FUSED_FAULTS["8.1"][2],
        "8.2": FUSED_FAULTS["8.2"][2],
    }),
    "3.x": (FUSED_FAULTS["3.1"][0] + FUSED_FAULTS["3.bij"][0], _AT_3, {
        "3.1": FUSED_FAULTS["3.1"][2],
        "3.bij": FUSED_FAULTS["3.bij"][2],
    }),
    # a shared value that raises fails each check that reads it
    "psi-raises": ([(permstats, "psi", _psi_raises)], _AT_8, {
        check: '{"first_discrepancy": {"actual": "ArithmeticError(\'psi failed\')", "expected": "no exception", '
               '"index": ["exception"]}, "id": "%s", "params": {"perm_sweep_n": 5}, "status": "fail"}' % check
        for check in ("8.1", "8.2")
    }),
    # 8.2 counts the permutations walked; 8.phi and 8.1 compare with n!
    "walk-repeats": ([(permstats, "walk", _walk_repeats)], _AT_8, {
        "8.2": '{"first_discrepancy": {"actual": "120", "expected": "121", "index": [5, "bijective"]}, '
               '"id": "8.2", "params": {"n_max": 5}, "status": "fail"}',
    }),
    # 8.phi's iligne test; psi is built on foata_phi, so 8.1 and 8.2 fail too
    "phi-iligne": ([(permstats, "foata_phi", _foata_phi_reverse_complemented)], _AT_8, {
        "8.phi": '{"first_discrepancy": {"actual": "frozenset({1})", "expected": "frozenset({3})", '
                 '"index": [4, [1, 2, 4, 3], "iligne"]}, "id": "8.phi", "params": {"n_max": 5}, "status": "fail"}',
        "8.1": '{"first_discrepancy": {"actual": "frozenset({1})", "expected": "frozenset({3})", '
               '"index": [4, [1, 2, 4, 3], "ligne"]}, "id": "8.1", "params": {"n_max": 5}, "status": "fail"}',
        "8.2": '{"first_discrepancy": {"actual": "ValueError(\'component shapes violate the alternation rules: '
               '((4, 1), (2, 3))\')", "expected": "no exception", "index": ["exception"]}, "id": "8.2", '
               '"params": {"perm_sweep_n": 5}, "status": "fail"}',
    }),
    # a walk that raises outside every check's own scope fails each check
    # that reads it (the 8.x pass's catch-all; 3.bij reads the walk of S_4)
    "walk-raises": ([(permstats, "walk", _walk_of_s4_raises)], _AT_8, {
        **{check: '{"first_discrepancy": {"actual": "ArithmeticError(\'walk failed\')", "expected": "no exception", '
                  '"index": ["exception"]}, "id": "%s", "params": {"perm_sweep_n": 5}, "status": "fail"}' % check
           for check in ("8.phi", "8.1", "8.2")},
        "3.bij": '{"first_discrepancy": {"actual": "ArithmeticError(\'walk failed\')", "expected": "no exception", '
                 '"index": ["exception"]}, "id": "3.bij", "params": {"sweep_n": 3}, "status": "fail"}',
    }),
}


def _failing(reports):
    return {r.id: r.to_json_line() for r in reports if not r.passed}


class TestFusedSweeps:
    """Each check of a fused sweep keeps its own collector and stops at its
    own first discrepancy, so a fault in one check's comparison fails that
    check alone, with the report it gave when it swept alone; no report
    outlives one run."""

    @pytest.mark.parametrize("check", sorted(FUSED_FAULTS))
    @pytest.mark.parametrize("lanes", [1, 2])
    def test_a_fault_fails_only_its_check(self, monkeypatch, check, lanes):
        patches, bounds, expected = FUSED_FAULTS[check]
        _use_lanes(monkeypatch, lanes)
        for module, name, fake in patches:
            monkeypatch.setattr(module, name, fake)
        assert _failing(verify.run_checks(verify.specs_for(_FUSED_IDS), bounds)) == {check: expected}

    @pytest.mark.parametrize("check", sorted(FUSED_FAULTS))
    def test_a_fault_patched_between_two_runs_is_seen(self, monkeypatch, check):
        patches, bounds, expected = FUSED_FAULTS[check]
        _use_lanes(monkeypatch, 1)
        specs = verify.specs_for(_FUSED_IDS)
        assert _failing(verify.run_checks(specs, bounds)) == {}
        for module, name, fake in patches:
            monkeypatch.setattr(module, name, fake)
        assert _failing(verify.run_checks(specs, bounds)) == {check: expected}

    @pytest.mark.parametrize("check", sorted(FUSED_FAULTS))
    def test_each_check_run_alone_gives_the_same_report(self, monkeypatch, check):
        patches, bounds, expected = FUSED_FAULTS[check]
        for module, name, fake in patches:
            monkeypatch.setattr(module, name, fake)
        for other in _FUSED_IDS[1:]:
            (report,) = verify.run_checks(verify.specs_for([other]), bounds)
            assert report.to_json_line() == expected if other == check else report.passed

    @pytest.mark.parametrize("faults", sorted(_SEVERAL_FAULTS))
    @pytest.mark.parametrize("lanes", [1, 2])
    def test_each_check_reports_its_own_first_failure(self, monkeypatch, faults, lanes):
        patches, bounds, expected = _SEVERAL_FAULTS[faults]
        _use_lanes(monkeypatch, lanes)
        for module, name, fake in patches:
            monkeypatch.setattr(module, name, fake)
        assert _failing(verify.run_checks(verify.specs_for(_FUSED_IDS), bounds)) == expected

    def test_the_shared_work_is_done_once(self, monkeypatch):
        # psi once per permutation walked and once per worked example, and
        # one insertion per pair (w, i), whether one check reads them or all
        real_psi, real_insert = permstats.psi, tcomb._insert_one
        calls = []

        def recording(name, real):
            def record(*args):
                calls.append(name)
                return real(*args)

            return record

        monkeypatch.setattr(permstats, "psi", recording("psi", real_psi))
        monkeypatch.setattr(tcomb, "_insert_one", recording("insert", real_insert))
        _use_lanes(monkeypatch, 1)
        bounds = Bounds(sweep_n=4, perm_sweep_n=5)
        counts = {}
        for ids in (["8.1"], ["8.phi", "8.1", "8.2"], ["3.bij"], ["3.1", "3.bij"]):
            calls.clear()
            assert all(r.passed for r in verify.run_checks(verify.specs_for(ids), bounds))
            counts[tuple(ids)] = Counter(calls)
        walked = sum(math.factorial(n) for n in range(6))
        assert counts[("8.1",)] == {"psi": walked + 1}
        assert counts[("8.phi", "8.1", "8.2")] == {"psi": walked + 2}
        # the worked examples of 3.1 insert through delta_star and star_delta
        assert counts[("3.1", "3.bij")] == {"insert": counts[("3.bij",)]["insert"] + 8}


def _raises_on(real, fires, message):
    """``real``, raising ArithmeticError(message) on the words ``fires`` names."""

    def fake(word):
        if fires(word):
            raise ArithmeticError(message)
        return real(word)

    return fake


# a step that only one check of a fused sweep reads raises: that check alone
# fails, with the exception, and the others pass.  3.1 reads sigma's
# statistics and the image words' iligne; 8.1 reads a psi image's ligne
# only when its descent word differs from sigma's (so psi is swapped too)
_OWN_STEP_RAISES = {
    "3.1-sigma-statistics": (
        [(permstats, "statistics", _raises_on(permstats.statistics, lambda w: _fires(w, 4), "statistics failed"))],
        _AT_3, "3.1", "sweep_n", "statistics failed",
    ),
    "3.1-image-iligne": (
        [(permstats, "iligne", _raises_on(permstats.iligne, lambda w: _fires(w, 5), "iligne failed"))],
        _AT_3, "3.1", "sweep_n", "iligne failed",
    ),
    "8.1-image-ligne": (
        [(permstats, "psi", _psi_swapped),
         (permstats, "ligne", _raises_on(permstats.ligne, lambda w: len(w) == 5, "ligne failed"))],
        _AT_8, "8.1", "perm_sweep_n", "ligne failed",
    ),
}


class TestOneScopePerStep:
    """3.1 does its per-image work, and 8.1 its ligne and inv=imaj tests,
    in one scope of its own, so an exception there fails that check alone
    and never the walk that the other checks of its sweep share."""

    @pytest.mark.parametrize("fault", sorted(_OWN_STEP_RAISES))
    @pytest.mark.parametrize("lanes", [1, 2])
    def test_an_exception_in_a_check_own_step_fails_that_check_alone(self, monkeypatch, fault, lanes):
        patches, bounds, check, field, message = _OWN_STEP_RAISES[fault]
        _use_lanes(monkeypatch, lanes)
        for module, name, fake in patches:
            monkeypatch.setattr(module, name, fake)
        assert _failing(verify.run_checks(verify.specs_for(_FUSED_IDS), bounds)) == {
            check: '{"first_discrepancy": {"actual": "ArithmeticError(\'%s\')", "expected": "no exception", '
            '"index": ["exception"]}, "id": "%s", "params": {"%s": %d}, "status": "fail"}'
            % (message, check, field, getattr(bounds, field))
        }
