"""Byte-for-byte regression against committed reports.

Each file in tests/golden/ is the stdout of the command listed for it
below, run from the repository root. A change that keeps the computed
answers keeps every file; one that changes a report on purpose
regenerates the file with the same command and says so.
"""

import random
from pathlib import Path

import pytest

from ncdef import diagram_io, synthetic
from ncdef.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

REPORTS = {
    "elliptic_a1_b1_order6.json":
        ["elliptic", "--a", "1", "--b", "1", "--hull-order", "6", "--format", "json"],
    "elliptic_a-2over3_b5over7_order4_full_complex.json":
        ["elliptic", "--a", "-2/3", "--b", "5/7", "--hull-order", "4", "--full-complex",
         "--format", "json"],
    "elliptic_a0_b2_order8.json":
        ["elliptic", "--a", "0", "--b", "2", "--hull-order", "8", "--format", "json"],
    "hull_elliptic_a1_b1_curve.json":
        ["hull", "docs/examples/elliptic_a1_b1_curve.json", "--format", "json"],
    "hull_elliptic_a1_b1_refined_curve.json":
        ["hull", "docs/examples/elliptic_a1_b1_refined_curve.json", "--format", "json"],
    "hull_genus2_affine_curve.json":
        ["hull", "docs/examples/genus2_affine_curve.json", "--format", "json"],
    "hull_gm_curve.json":
        ["hull", "docs/examples/gm_curve.json", "--format", "json"],
    "hull_p1_minus_three_points_curve.json":
        ["hull", "docs/examples/p1_minus_three_points_curve.json", "--format", "json"],
    "hull_punctured_cubic_a1_b1_curve.json":
        ["hull", "docs/examples/punctured_cubic_a1_b1_curve.json", "--format", "json"],
    "cohomology_elliptic_a1_b1_refined_ext1.json":
        ["cohomology", "docs/examples/elliptic_a1_b1_refined_ext1.json", "--format", "json"],
    "cohomology_synthetic_hom_seed243.json":
        ["cohomology", "docs/examples/synthetic_hom_seed243.json", "--format", "json"],
    "cohomology_synthetic_hom_seed243_full_complex.json":
        ["cohomology", "docs/examples/synthetic_hom_seed243.json", "--full-complex",
         "--format", "json"],
}


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(REPORTS)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden_file(name, capsys, monkeypatch):
    # the cohomology report names its input path, so run from the root as
    # the files were made
    monkeypatch.chdir(ROOT)
    assert main(REPORTS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def test_synthetic_example_is_its_seeded_draw(tmp_path):
    # docs/diagram_schema.md gives the draw that made the synthetic input
    rng = random.Random(243)
    base = synthetic.random_poset(rng, 5)
    fresh = tmp_path / "fresh.json"
    diagram_io.dump_functor(base, synthetic.random_hom_functor(base, rng), fresh)
    example = ROOT / "docs" / "examples" / "synthetic_hom_seed243.json"
    assert fresh.read_text() == example.read_text()
