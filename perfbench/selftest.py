"""Self-tests of the benchmark's correctness checks: each must reject a wrong answer.

    python3 perfbench/selftest.py

Kept out of the package's pytest collection (the file name does not match
``test_*.py``); it imports ``expsamp`` from this checkout's ``src/``.
"""

from __future__ import annotations

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from expsamp import FunctionHandle, orlicz, parse_phi_spec, refdata  # noqa: E402


def reference(table_id: str, operator: str) -> dict[tuple[int, float], float]:
    return {(r.n, r.point): r.abs_error for r in refdata.load_reference(table_id, operator)}


class TableCheck(unittest.TestCase):
    def test_published_tables_pass(self):
        for table_id in refdata.TABLE_IDS:
            for op in ("max_product", "max_min"):
                ref = reference(table_id, op)
                failed, _ = checks.check_table(table_id, op, dict(ref), ref)
                self.assertEqual(failed, set(), (table_id, op))

    def test_published_erratum_value_is_rejected(self):
        ref = reference("table3", "max_product")
        produced = dict(ref)
        produced[(26, 0.8)] = 0.00626  # the misprinted published cell
        failed, _ = checks.check_table("table3", "max_product", produced, ref)
        self.assertEqual(failed, {(26, 0.8)})

    def test_error_rising_where_reference_falls_is_rejected(self):
        ref = reference("table2", "max_min")
        self.assertLess(ref[(35, 2.0)], ref[(26, 2.0)])
        produced = dict(ref)
        produced[(35, 2.0)] = ref[(26, 2.0)] * 1.01
        failed, _ = checks.check_table("table2", "max_min", produced, ref)
        self.assertEqual(failed, {(35, 2.0)})

    def test_known_off_cell_is_reported_not_gated(self):
        ref = reference("table5", "max_product")
        produced = dict(ref)
        produced[(17, 2.5)] = 0.18058  # what the operator gives there
        failed, notes = checks.check_table("table5", "max_product", produced, ref)
        self.assertEqual(failed, set())
        self.assertEqual(len(notes), 1)
        self.assertIn("n=17 w=2.5", notes[0])


class ModularCheck(unittest.TestCase):
    def test_decreasing_series_passes(self):
        self.assertEqual(checks.check_modular_series([3.3e-3, 1.4e-3, 7.4e-4, 3.3e-4]), set())

    def test_rising_series_is_rejected(self):
        self.assertEqual(checks.check_modular_series([3.3e-3, 1.4e-3, 1.5e-3, 3.3e-4]), {2})

    def test_slowly_falling_series_is_rejected(self):
        self.assertEqual(checks.check_modular_series([1.0, 0.9, 0.8, 0.7]), {3})

    def test_dense_rule_and_its_tolerance(self):
        value = checks.dense_modular(np.exp, 0.0, 1.0)
        self.assertAlmostEqual(value, math.e - 1.0, places=12)
        self.assertTrue(checks.modular_matches(value + 1e-9, value))
        self.assertFalse(checks.modular_matches(value + 1e-7, value))


class NormCheck(unittest.TestCase):
    def test_closed_form_of_a_constant(self):
        # c on [a, b] under v^p: the norm is c * log(b/a)^(1/p)
        got = checks.closed_form_norm("power", (2.5,), [0.5, 4.0], [1.7])
        self.assertAlmostEqual(got, 1.7 * math.log(8.0) ** (1 / 2.5), places=13)

    def test_program_norm_passes_and_perturbed_norm_is_rejected(self):
        edges = np.array([0.6, 1.1, 2.0, 3.5])
        values = np.array([0.4, 2.2, 1.3])

        def evaluate(w):
            idx = np.clip(np.searchsorted(edges, np.asarray(w), side="right") - 1, 0, 2)
            return values[idx]

        h = FunctionHandle(name="pc", domain=(0.6, 3.5), evaluator=evaluate)
        for spec in ("power:1.7", "powerlog:1:1", "exppower:1"):
            gauge = parse_phi_spec(spec)
            want = checks.closed_form_norm(gauge.family, gauge.params,
                                           edges.tolist(), values.tolist())
            got = orlicz.luxemburg_norm(gauge, h, 0.6, 3.5, tol=1e-9)
            self.assertTrue(checks.norm_matches(got, want), (spec, got, want))
            self.assertFalse(checks.norm_matches(got + 1e-6, want), spec)


if __name__ == "__main__":
    unittest.main()
