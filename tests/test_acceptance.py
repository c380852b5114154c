"""Acceptance suite: one test per criterion, at the stated bounds.

Every comparison is an exact integer/polynomial equality.  Each test
prints a single pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

from qderiv import verify
from qderiv.fixtures import DEFAULT_FIXTURES


def _finish(name, reports):
    failed = [r for r in reports if not r.passed]
    print("ACCEPTANCE %s: %s" % (name, "FAIL" if failed else "PASS"))
    assert not failed, "\n".join(r.to_json_line() for r in failed)


def test_criterion_01_table_fixtures():
    start = time.perf_counter()
    reports = [
        verify.check_table1(),
        verify.check_table2(),
        verify.check_table3(),
        verify.check_table4(),
    ]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "fixture comparison took %.2fs" % elapsed
    _finish("criterion-01 table-fixtures (%.2fs)" % elapsed, reports)


def test_criterion_02_triple_method_equivalence():
    reports = [
        verify.check_triple("A", 10, 8),
        verify.check_triple("B", 10, 8),
        verify.check_triple("Ac", 10, 8),
    ]
    _finish("criterion-02 triple-method", reports)


def test_criterion_03_series_identities():
    reports = []
    for n in range(7):
        for check_id in ("1.9", "1.11", "1.12", "1.14", "1.15", "1.16"):
            reports.append(verify.check_expansion(check_id, n, 10))
    reports.append(verify.check_eq_2_3(11))
    reports.append(verify.check_eq_2_4(11))
    reports.append(verify.check_eq_2_5(11))
    _finish("criterion-03 series-identities", reports)


def test_criterion_04_generating_functions():
    reports = [
        verify.check_bivariate("1.19", 8),
        verify.check_bivariate("1.20", 8),
        verify.check_hoffman("1.6", 8),
        verify.check_hoffman("1.7", 8),
        verify.check_classical_tan(),
        verify.check_classical_sec(),
    ]
    _finish("criterion-04 generating-functions", reports)


def test_criterion_05_q_tangent_secant_layer():
    reports = [
        verify.check_sec7_values(),
        verify.check_convolution("7.4", 11),
        verify.check_convolution("7.5", 11),
        verify.check_convolution("7.6", 11),
        verify.check_7_combined(11),
        verify.check_reversal("7.11", 11),
        verify.check_reversal("7.12", 11),
        verify.check_alternating("7.1", 9),
        verify.check_alternating("7.imaj", 8),
    ]
    _finish("criterion-05 q-tangent-secant", reports)


def test_criterion_06_bijection_sweeps():
    reports = [
        verify.check_3_1(6),
        verify.check_3_bijections(6),
        verify.check_phi(7),
        verify.check_psi(7),
        verify.check_psi_on_t(7),
    ]
    _finish("criterion-06 bijections", reports)


def test_criterion_07_structural_identities():
    reports = [
        verify.check_eq_1_17(7),
        verify.check_eq_1_18(7),
        verify.check_9_1(8),
        verify.check_symmetry(7),
    ]
    _finish("criterion-07 structural", reports)


def test_criterion_08_specializations():
    reports = [
        verify.check_carlitz(5),
        verify.check_10_5(6),
        verify.check_10_7(6),
        verify.check_10_8(8, 7),
        verify.check_subdiagonal("10.3", 8),
        verify.check_subdiagonal("10.4", 8),
        verify.check_tq(7),
        verify.check_springer(8),
    ]
    _finish("criterion-08 specializations", reports)


def test_criterion_09_fibonacci_layer():
    reports = [
        verify.check_fig101(),
        verify.check_alpha_counts(10),
        verify.check_fib_gf(12),
    ]
    _finish("criterion-09 fibonacci", reports)


FIXTURE_CHECKS = (
    ("table1", lambda: verify.check_table1()),
    ("table2", lambda: verify.check_table2()),
    ("table3", lambda: verify.check_table3()),
    ("table4", lambda: verify.check_table4()),
    ("fig10.1", lambda: verify.check_fig101()),
    ("sec7.values", lambda: verify.check_sec7_values()),
    ("1.1", lambda: verify.check_classical_tan()),
    ("1.2", lambda: verify.check_classical_sec()),
    ("10.2", lambda: verify.check_carlitz()),
    ("springer", lambda: verify.check_springer(6)),
)

FIXTURE_OWNERS = {
    "table1.a": "table1",
    "table1.b": "table1",
    "table2.a": "table2",
    "table2.b": "table2",
    "table3": "table3",
    "table4.a": "table4",
    "table4.b": "table4",
    "fig10.1.alpha": "fig10.1",
    "fig10.1.beta": "fig10.1",
    "fig10.1.alpha.rowsums": "fig10.1",
    "fig10.1.beta.rowsums": "fig10.1",
    "qtan": "sec7.values",
    "qsec": "sec7.values",
    "qsec2": "sec7.values",
    "classical.t": "1.1",
    "classical.e": "1.2",
    "carlitz": "10.2",
    "carlitz.refined": "10.2",
    "springer": "springer",
}


def _mutations():
    for key, owner in FIXTURE_OWNERS.items():
        fixture = DEFAULT_FIXTURES[key]
        if isinstance(fixture, dict):
            for cell, value in fixture.items():
                mutated = dict(fixture)
                if isinstance(value, tuple):
                    mutated[cell] = (value[0] + 1,) + value[1:]
                else:
                    mutated[cell] = value + 1
                yield key, owner, cell, mutated
        else:
            for pos, value in enumerate(fixture):
                mutated = list(fixture)
                mutated[pos] = value + 1
                yield key, owner, pos, tuple(mutated)


def test_criterion_10_mutation_sensitivity(monkeypatch):
    ok = True
    for key, owner, cell, mutated in _mutations():
        fixtures = dict(DEFAULT_FIXTURES)
        fixtures[key] = mutated
        monkeypatch.setattr(verify, "DEFAULT_FIXTURES", fixtures)
        failed = []
        for check_id, run in FIXTURE_CHECKS:
            report = run()
            if not report.passed:
                failed.append(report)
        assert [r.id for r in failed] == [owner], (
            "mutating %s[%r] broke %s" % (key, cell, [r.id for r in failed])
        )
        index = tuple(failed[0].first_discrepancy.index)
        if isinstance(cell, tuple):
            flattened = []
            for part in index:
                if isinstance(part, tuple):
                    flattened.extend(part)
                else:
                    flattened.append(part)
            for part in cell:
                if isinstance(part, tuple):
                    assert part in index
                else:
                    assert part in flattened, (
                        "cell %r not localized in %r" % (cell, index)
                    )
        else:
            assert cell in index
    print("ACCEPTANCE criterion-10 mutation-sensitivity: %s" % ("PASS" if ok else "FAIL"))
