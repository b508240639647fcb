"""One test per verification criterion, plus the documented table discrepancy.

Each criterion function bundles many checks and reports one record; the tests
here fail with the full detail list so a regression names the exact check
that broke.
"""

import ast
import sys
from pathlib import Path

import pytest

from qhandle import _oracles, acceptance
from qhandle.partitions import est_bound


def _assert_criterion(ch):
    assert ch.ok, "\n".join(ch.details)


def test_criterion_1_projective_spaces():
    _assert_criterion(acceptance.criterion_1())


def test_criterion_2_quadrics():
    _assert_criterion(acceptance.criterion_2())


def test_criterion_3_grassmannian_handles_and_table():
    ch = acceptance.criterion_3()
    _assert_criterion(ch)
    gr39 = [msg for msg in ch.known if "gr:3,9" in msg]
    assert len(ch.known) == 1 and len(gr39) == 1


def test_criterion_4_gr2_block_structure():
    _assert_criterion(acceptance.criterion_4())


def test_criterion_5_span_dimensions():
    _assert_criterion(acceptance.criterion_5())


def test_criterion_6_fano_complete_intersections():
    _assert_criterion(acceptance.criterion_6())


def test_criterion_7_random_limit_certification():
    _assert_criterion(acceptance.criterion_7())


def test_criterion_8_oracle_cross_checks():
    _assert_criterion(acceptance.criterion_8())


@pytest.mark.xfail(strict=True,
                   reason="published table row gr:3,9 prints 9; the defining "
                          "formula gives 10")
def test_published_table_value_gr_3_9():
    assert est_bound(3, 9) == 9


def test_formula_value_gr_3_9_is_pinned():
    assert est_bound(3, 9) == 10


def test_run_all_shape():
    result = acceptance.run_all(only={2, 5})
    assert result["ok"] is True
    assert [rec["id"] for rec in result["criteria"]] == [2, 5]
    assert result["known_failure_count"] == 0
    for rec in result["criteria"]:
        assert rec["details"] and all(d.startswith("ok: ")
                                      for d in rec["details"])


def test_run_all_rejects_empty_selection():
    with pytest.raises(ValueError):
        acceptance.run_all(only=set())


def test_summary_lines_format():
    result = acceptance.run_all(only={1})
    lines = acceptance.summary_lines(result)
    assert len(lines) == 1
    assert lines[0].startswith("criterion 1: PASS")


def test_oracles_import_only_the_standard_library():
    # the oracles are independent of the code they check only while this holds
    tree = ast.parse(Path(_oracles.__file__).read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in _oracles"
            modules.append(node.module)
    assert modules
    for name in modules:
        assert name.split(".")[0] in sys.stdlib_module_names, name
