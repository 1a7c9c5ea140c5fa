"""Snapshots of the public surface: the exported names and default CLI output.

``cli_golden.json`` holds the stdout and exit code of default invocations of
every subcommand family, recorded before the planar and Gauss loops were
folded into the simplex engine; the output must stay byte-identical.
"""

import json
from pathlib import Path

import pytest

import trianglemap
from trianglemap.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())

PUBLIC_NAMES = [
    "BigFloat", "DegenerateInputError", "FormEvaluator", "GaussRecord",
    "InconsistentInputError", "IntMatrix", "IntPolynomial", "NonNegSymbol",
    "NotYetConvergedError", "PairSymbol", "Point2", "PointN",
    "PrecisionExhaustedError", "RootSpec", "SequenceRecord", "SequenceStatus",
    "Sign", "TriangleMapError", "TriangleRegion", "classify", "classify_nd",
    "decomposition_check", "derive_cubic", "detect_period", "divides",
    "eliminant_nd", "eliminant_report", "fixed_point_nd", "fixed_point_poly",
    "fundamental_identity_check", "gauss_sequence", "gcd", "period_one_point",
    "period_one_poly", "period_one_root", "power_basis_evidence",
    "preimage_region", "product_matrix", "rational_termination_check",
    "realize", "recover_nd", "recover_pair", "recover_terminated",
    "refine_root", "region_membership", "region_vertices", "root_powers",
    "sequence", "sequence_nd", "sign_of", "squarefree_part", "step",
    "step_matrix", "step_matrix_nd", "witness",
]


def test_all_snapshot():
    assert trianglemap.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(trianglemap, name), name


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"][:3]))
def test_cli_golden_stdout(capsys, case):
    code = main(list(case["argv"]))
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]
