import json
import re
from pathlib import Path

import pytest

from ncdef.cli import main

DOCS_DIAGRAM = Path(__file__).resolve().parents[1] / "docs" / "examples" / "elliptic_a1_b1_ext1.json"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_elliptic_json_success(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, stderr = run_cli(
        ["elliptic", "--a", "1", "--b", "1", "--hull-order", "4",
         "--format", "json", "--out", str(out)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["hull"]["relations"] == ["t1*t2 - t2*t1"]
    assert "done in" in stderr


def test_elliptic_singular_curve_exit_one(capsys):
    code, _out, err = run_cli(["elliptic", "--a", "0", "--b", "0"], capsys)
    assert code == 1
    assert "singular curve: discriminant = 0" in err


def test_usage_error_exit_two(capsys):
    code, _out, _err = run_cli(["elliptic", "--a", "1"], capsys)
    assert code == 2
    code, _out, _err = run_cli(["nonsense"], capsys)
    assert code == 2


def test_same_inputs_byte_identical_json(capsys, tmp_path):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        code, _o, _e = run_cli(
            ["elliptic", "--a", "1", "--b", "1", "--hull-order", "3",
             "--format", "json", "--out", str(p)],
            capsys,
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_markdown_default_format(capsys):
    code, out, _err = run_cli(["elliptic", "--a", "0", "--b", "1",
                               "--hull-order", "2"], capsys)
    assert code == 0
    assert "| U2 >= U2 | 1, x |" in out


def test_cohomology_subcommand_on_worked_export(capsys):
    code, out, _err = run_cli(
        ["cohomology", str(DOCS_DIAGRAM), "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cohomology_run"]["0"]["dim"] == 2
    assert payload["cohomology_run"]["1"]["dim"] == 1


def test_cohomology_rejects_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "wrong"}')
    code, _out, err = run_cli(["cohomology", str(bad)], capsys)
    assert code == 1
    assert "schema" in err


def test_worked_export_is_current(tmp_path):
    # the docs example regenerates byte-identically from the pipeline
    from ncdef import elliptic
    from ncdef.cokernels import build_ext_diagram
    from ncdef.diagram_io import dump_functor

    cfg = elliptic.build(1, 1)
    diagram = build_ext_diagram(cfg.poset, cfg.charts, cfg.restrictions,
                                preferred_reps=cfg.ext_basis_strings())
    fresh = tmp_path / "fresh.json"
    dump_functor(cfg.poset, diagram.functor, fresh)
    assert fresh.read_text() == DOCS_DIAGRAM.read_text()


def test_hull_subcommand(capsys, tmp_path):
    config = tmp_path / "hull.json"
    config.write_text(json.dumps({
        "schema": "ncdef-hull/1", "kind": "elliptic",
        "a": "0", "b": "1", "hull_order": 3,
    }))
    code, out, _err = run_cli(["hull", str(config), "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["hull"]["relations"] == ["t1*t2 - t2*t1"]
    assert payload["verdicts"]["hull_versal_zero_defect"] is True


def test_hull_subcommand_rejects_bad_order(capsys, tmp_path):
    config = tmp_path / "hull.json"
    config.write_text(json.dumps({
        "schema": "ncdef-hull/1", "kind": "elliptic",
        "a": "1", "b": "1", "hull_order": 1,
    }))
    code, _out, err = run_cli(["hull", str(config)], capsys)
    assert code == 1
    assert "order" in err


def test_hull_subcommand_rejects_unknown_kind(capsys, tmp_path):
    config = tmp_path / "hull.json"
    config.write_text(json.dumps({"schema": "ncdef-hull/1", "kind": "mystery"}))
    code, _out, err = run_cli(["hull", str(config)], capsys)
    assert code == 1
    assert "kind" in err


def test_selftest_runs_green(capsys):
    code, out, _err = run_cli(["selftest"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 6
    assert all(l.startswith("PASS") for l in lines)


def test_elliptic_hull_order_below_two_is_usage_error(capsys):
    code, _out, err = run_cli(["elliptic", "--a", "1", "--b", "1", "--hull-order", "1"],
                              capsys)
    assert code == 2
    assert "hull order must be >= 2" in err


def test_cohomology_p_max_below_one_is_usage_error(capsys):
    code, _out, err = run_cli(["cohomology", str(DOCS_DIAGRAM), "--p-max", "0"], capsys)
    assert code == 2
    assert "p-max must be >= 1" in err


def test_negative_rationals_in_both_spellings(capsys, tmp_path):
    reports = []
    for spelling in (["--a", "-3/2", "--b", "-5/7"], ["--a=-3/2", "--b=-5/7"]):
        out = tmp_path / f"r{len(reports)}.json"
        code, _o, err = run_cli(["elliptic", *spelling, "--hull-order", "2",
                                 "--format", "json", "--out", str(out)], capsys)
        assert code == 0, err
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    payload = json.loads(reports[0])
    assert (payload["input"]["a"], payload["input"]["b"]) == ("-3/2", "-5/7")
    # a value that is no rational is still a missing argument
    code, _o, err = run_cli(["elliptic", "--a", "1", "--b", "-x"], capsys)
    assert code == 2
    assert "expected one argument" in err


def test_cohomology_rejects_a_perturbed_arrow_matrix(capsys, tmp_path):
    data = json.loads(DOCS_DIAGRAM.read_text())
    (entry,) = [m for m in data["maps"]
                if (m["of"], m["alpha"], m["beta"]) == ("id:U3", "id:U3", "id:U3")]
    entry["matrix"][0][1] = "1/3"
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["cohomology", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "identity arrow at id:U3 is not the identity matrix" in err


def test_cohomology_rejects_a_non_functorial_diagram(capsys, tmp_path):
    # the shipped example has no composable pair of non-identity arrows, so
    # only a longer chain a -> b -> c can break functoriality itself
    from ncdef.diagram_io import dump_functor, load_functor
    from ncdef.diagrams import CategoryError, FiniteCategory, constant_functor

    chain = FiniteCategory.poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    path = tmp_path / "chain.json"
    dump_functor(chain, constant_functor(chain), path)
    load_functor(path)
    data = json.loads(path.read_text())
    (entry,) = [m for m in data["maps"]
                if (m["of"], m["alpha"], m["beta"]) == ("id:b", "a>b", "b>c")]
    entry["matrix"] = [["2"]]
    path.write_text(json.dumps(data))
    message = "functoriality fails: (a>b,id:c).(id:b,b>c) at id:b"
    with pytest.raises(CategoryError, match=re.escape(message)):
        load_functor(path)
    code, out, err = run_cli(["cohomology", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert message in err


def test_malformed_inputs_exit_one(capsys, tmp_path):
    data = json.loads(DOCS_DIAGRAM.read_text())
    del data["maps"]
    diagram = tmp_path / "no_maps.json"
    diagram.write_text(json.dumps(data))
    code, out, err = run_cli(["cohomology", str(diagram)], capsys)
    assert (code, out) == (1, "")
    assert "malformed diagram (KeyError: 'maps')" in err
    config = tmp_path / "hull.json"
    config.write_text(json.dumps({"schema": "ncdef-hull/1", "kind": "elliptic", "a": "1"}))
    code, out, err = run_cli(["hull", str(config)], capsys)
    assert (code, out) == (1, "")
    assert "hull configuration has no entry 'b'" in err
    config.write_text(json.dumps({"schema": "ncdef-hull/1", "kind": "elliptic",
                                  "a": "1", "b": "1/0"}))
    code, _out, err = run_cli(["hull", str(config)], capsys)
    assert code == 1
    assert "bad hull configuration entry" in err


def test_internal_errors_surface_instead_of_exiting_one(monkeypatch):
    from ncdef import cokernels, diagrams, engine, linalg, matric

    def broken(m, b):
        raise KeyError("internal")

    for module in (linalg, cokernels, diagrams, engine, matric):
        monkeypatch.setattr(module, "solve", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["elliptic", "--a", "1", "--b", "1", "--hull-order", "2"])
