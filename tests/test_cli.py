import json
import re
from pathlib import Path

import pytest

from ncdef.cli import main

DOCS_DIAGRAM = Path(__file__).resolve().parents[1] / "docs" / "examples" / "elliptic_a1_b1_ext1.json"
DOCS_CURVE = DOCS_DIAGRAM.with_name("elliptic_a1_b1_curve.json")
# the cover {U1, U2, V = U2[1/x]} closed under intersections: 5 charts, 7 arrows
DOCS_REFINED_CURVE = DOCS_DIAGRAM.with_name("elliptic_a1_b1_refined_curve.json")
DOCS_REFINED_DIAGRAM = DOCS_DIAGRAM.with_name("elliptic_a1_b1_refined_ext1.json")


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
    # each docs example regenerates byte-identically from the pipeline
    from ncdef import elliptic
    from ncdef.cokernels import build_ext_diagram
    from ncdef.diagram_io import Curve, dump_functor

    refined = Curve(json.loads(DOCS_REFINED_CURVE.read_text()))
    for cfg, export in ((elliptic.build(1, 1), DOCS_DIAGRAM), (refined, DOCS_REFINED_DIAGRAM)):
        diagram = build_ext_diagram(cfg.poset, cfg.charts, cfg.restrictions,
                                    preferred_reps=cfg.ext1)
        fresh = tmp_path / "fresh.json"
        dump_functor(cfg.poset, diagram.functor, fresh)
        assert fresh.read_text() == export.read_text()


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


def test_shipped_curve_config_is_current():
    # the docs example is the configuration elliptic emits at (1, 1)
    from ncdef import elliptic

    text = json.dumps(elliptic.curve_config(1, 1), indent=2) + "\n"
    assert text == DOCS_CURVE.read_text()


def test_curve_config_runs_like_the_elliptic_kind(capsys, tmp_path):
    from ncdef import elliptic
    from ncdef.diagram_io import Curve

    elliptic_config = tmp_path / "elliptic.json"
    elliptic_config.write_text(json.dumps({"schema": "ncdef-hull/1", "kind": "elliptic",
                                           "a": "1", "b": "1"}))
    payloads = []
    for config in (elliptic_config, DOCS_CURVE, DOCS_REFINED_CURVE):
        code, out, err = run_cli(["hull", str(config), "--format", "json"], capsys)
        assert code == 0, err
        payloads.append(json.loads(out))
    by_kind, *by_charts = payloads
    for payload in by_charts:
        assert payload["input"] == {"hull_order": 4, "dmax": 24}
        assert payload["hull"] == by_kind["hull"]
        assert payload["verdicts"] == by_kind["verdicts"]
    # the refined cover has chains, so validate's composition defect runs on them
    refined = elliptic.build_context(Curve(json.loads(DOCS_REFINED_CURVE.read_text())))
    assert refined.hh.dims == (1, 2, 1)
    assert len(refined.composable_pairs()) == 3
    code, out, _err = run_cli(["hull", str(DOCS_CURVE)], capsys)
    assert code == 0
    assert "Input: hull order 4, dmax 24." in out


P1_CONFIG = {
    "schema": "ncdef-hull/1", "kind": "curve",
    "charts": {"U1": {"variables": ["x"], "derivation": {"x": "1"}},
               "U2": {"variables": ["u"], "derivation": {"u": "-u^2"}},
               "U3": {"variables": ["x"], "inverted": "x", "derivation": {"x": "1"}}},
    "restrictions": {"U1>U3": {"x": "x"}, "U2>U3": {"u": "x^-1"}},
}


def test_hull_rejects_p1_with_a_vanishing_derivation(capsys, tmp_path):
    config = tmp_path / "p1.json"
    config.write_text(json.dumps(P1_CONFIG))
    code, out, err = run_cli(["hull", str(config)], capsys)
    assert (code, out) == (1, "")
    assert err == ("ncdef: chart U2: derivation does not generate the tangent module "
                   "(the relations and the derivation's generator images do not "
                   "generate the unit ideal)\n")


def _curve(edit):
    config = json.loads(DOCS_CURVE.read_text())
    edit(config)
    return config


def _chain(config):
    # three copies of Q[x] with d/dx on a chain; the composite U1>U3 is left out
    chart = {"variables": ["x"], "derivation": {"x": "1"}}
    config["charts"] = {"U1": chart, "U2": chart, "U3": chart}
    config["restrictions"] = {"U1>U2": {"x": "x"}, "U2>U3": {"x": "x"}}
    del config["bases"]


@pytest.mark.parametrize("config, message", [
    (_curve(lambda c: c.pop("restrictions")), "configuration has no entry 'restrictions'"),
    (_curve(lambda c: c["charts"]["U2"].pop("variables")),
     "chart 'U2' has no entry 'variables'"),
    (_curve(lambda c: c["charts"]["U2"]["relations"].__setitem__(0, "y^2 - w^3")),
     "variable 'w' not declared"),
    (_curve(lambda c: c["restrictions"]["U2>U3"].__setitem__("y", "-y")),
     "restriction U2>U3 does not intertwine the derivations"),
    (_curve(_chain), "no restriction morphism supplied for U1>U3"),
    (_curve(lambda c: c.__setitem__("hull_order", 3.9)), "hull_order must be an integer, got 3.9"),
    (_curve(lambda c: c.__setitem__("dmax", 24.7)), "dmax must be an integer, got 24.7"),
    ({"schema": "ncdef-hull/1", "kind": "elliptic", "a": "1", "b": "1", "hull_order": 3.9},
     "hull_order must be an integer, got 3.9"),
    ({"schema": "ncdef-hull/1", "kind": "elliptic", "a": "1", "b": "1", "hull_order": True},
     "hull_order must be an integer, got True"),
    ({"schema": "ncdef-hull/1", "kind": "elliptic", "a": 0.5, "b": "1"},
     "bad hull configuration entry: a is not a rational string"),
])
def test_malformed_curve_configs_exit_one(capsys, tmp_path, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(["hull", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("ncdef: ") and message in err
    assert "Traceback" not in err


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
    # a chain a -> b -> c, and the refined example's chain U1 -> U12 -> U1V:
    # an arrow matrix along a composable pair breaks functoriality itself
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
    data = json.loads(DOCS_REFINED_DIAGRAM.read_text())
    (entry,) = [m for m in data["maps"]
                if (m["of"], m["alpha"], m["beta"]) == ("id:U12", "U1>U12", "U12>U1V")]
    entry["matrix"][0][0] = "2"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["cohomology", str(path)], capsys)
    assert (code, out) == (1, "")
    assert "functoriality fails: (U1>U12,id:U1V).(id:U12,U12>U1V) at id:U12" in err


@pytest.mark.parametrize("example", sorted(DOCS_DIAGRAM.parent.glob("*.json")),
                         ids=lambda path: path.name)
def test_every_shipped_example_runs(capsys, example):
    # curve configurations through `ncdef hull`, diagrams through `ncdef cohomology`
    data = json.loads(example.read_text())
    if data.get("kind") == "curve":
        command = "hull"
    else:
        assert data["schema"] == "ncdef-diagram/1", "an example of no known kind"
        command = "cohomology"
    code, out, err = run_cli([command, str(example)], capsys)
    assert code == 0, err
    assert out


# affine curve configurations and the dimension r of their H^1_dR
AFFINE_CURVES = {
    "gm_curve.json": 1,
    "punctured_cubic_a1_b1_curve.json": 2,
    "p1_minus_three_points_curve.json": 2,
    "genus2_affine_curve.json": 4,
}


@pytest.mark.parametrize("name, r", AFFINE_CURVES.items(), ids=list(AFFINE_CURVES))
def test_affine_curve_hull_is_free_on_its_first_betti_number(capsys, name, r):
    # de Rham: HH = (1, r, 0) on an affine curve. Its pi_1 is free on r
    # generators, so the hull is the completed free algebra: no relations,
    # and r^n words of radical degree n
    from ncdef import elliptic
    from ncdef.diagram_io import Curve

    path = DOCS_DIAGRAM.with_name(name)
    assert elliptic.build_context(Curve(json.loads(path.read_text()))).hh.dims == (1, r, 0)
    code, out, err = run_cli(["hull", str(path), "--format", "json"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["hull"]["relations"] == []
    orders = range(payload["input"]["hull_order"])
    assert payload["hull"]["dims_by_radical_degree"] == [r ** n for n in orders]
    assert payload["verdicts"] == {"hull_versal_zero_defect": True}


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
    from ncdef import cokernels, diagrams, engine, linalg

    def broken(m, b):
        raise KeyError("internal")

    for module in (linalg, cokernels, diagrams, engine):
        monkeypatch.setattr(module, "solve", broken)
    with pytest.raises(KeyError, match="internal"):
        # reduce does not call solve; at order 3 the obstruction calculus
        # reaches it through diagrams and engine
        main(["elliptic", "--a", "1", "--b", "1", "--hull-order", "3"])


@pytest.mark.parametrize("where, value, message", [
    ("dim", 1.9, "dim must be an integer >= 0, got 1.9"),
    ("dim", True, "dim must be an integer >= 0, got True"),
    ("entry", 0.1, "entry 0.1 is not a rational string or an integer"),
    ("entry", True, "entry True is not a rational string or an integer"),
], ids=["dim-float", "dim-bool", "entry-float", "entry-bool"])
def test_cohomology_rejects_float_and_bool_numbers(capsys, tmp_path, where, value, message):
    # a float dim would be truncated and a float entry read as its binary
    # approximation; a bool would pass as 0 or 1
    data = json.loads(DOCS_DIAGRAM.read_text())
    if where == "dim":
        data["values"]["id:U1"]["dim"] = value
    else:
        entry = data["maps"][0]
        entry["matrix"][0][0] = value
    path = tmp_path / "numbers.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["cohomology", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("ncdef: ") and message in err


def test_integer_entries_load_like_their_strings():
    from ncdef.diagram_io import functor_from_dict

    data = json.loads(DOCS_DIAGRAM.read_text())
    _base, expected = functor_from_dict(data)
    for entry in data["maps"]:
        entry["matrix"] = [[int(x) if x.lstrip("-").isdigit() else x for x in line]
                           for line in entry["matrix"]]
    _base, got = functor_from_dict(data)
    assert got.dims == expected.dims
    assert all(got.matrix(*key).sparse == expected.matrix(*key).sparse
               for key in expected.mats)
