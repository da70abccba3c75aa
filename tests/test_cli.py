import json
import re
from pathlib import Path

import pytest

from ncdef.cli import main
from helpers import MALFORMED_NUMBERS

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


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # a usage error leaves the parser reusable, so main builds it once
    import argparse

    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "ncdef":
            built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run_cli(["elliptic", "--a", "1"], capsys)[0] == 2
    assert run_cli(["cohomology", str(DOCS_DIAGRAM), "--format", "json"], capsys)[0] == 0
    assert len(built) <= 1


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


# G_m = Q[x, s]/(x*s - 1) four times, glued along identities as a circle:
# two opens U, V meeting in two components W1, W2. The constant row has
# H^1 = 1 there, so its H^0 is not HH^0
_GM = {"variables": ["x", "s"], "relations": ["x*s - 1"], "derivation": {"x": "x", "s": "-s"}}
CIRCLE_CONFIG = {
    "schema": "ncdef-hull/1", "kind": "curve",
    "charts": {label: _GM for label in ("U", "V", "W1", "W2")},
    "restrictions": {arrow: {"x": "x", "s": "s"}
                     for arrow in ("U>W1", "U>W2", "V>W1", "V>W2")},
}


def test_hull_rejects_a_cover_whose_constant_row_is_not_acyclic(capsys, tmp_path):
    config = tmp_path / "circle.json"
    config.write_text(json.dumps(CIRCLE_CONFIG))
    code, out, err = run_cli(["hull", str(config)], capsys)
    assert (code, out) == (1, "")
    assert err == ("ncdef: the constant row of the cover has H^1, H^2 of dimensions 1, 0; "
                   "HH^0 reads only its H^0, which needs both to be 0\n")


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
    ({"schema": "ncdef-hull/1", "kind": "curve", "charts": {}, "restrictions": {}},
     "configuration lists no charts"),
    # a misspelled key would be read as absent: the default order, no basis
    ({**json.loads(DOCS_CURVE.with_name("gm_curve.json").read_text()), "hull_ordr": 7},
     "hull configuration has an unknown entry 'hull_ordr'"),
    (_curve(lambda c: c["bases"].__setitem__("h_1", c["bases"].pop("h1"))),
     "bases has an unknown entry 'h_1'"),
    (_curve(lambda c: c["charts"]["U3"].__setitem__("invert", c["charts"]["U3"].pop("inverted"))),
     "chart 'U3' has an unknown entry 'invert'"),
    ({"schema": "ncdef-hull/1", "kind": "elliptic", "a": "1", "b": "1", "bases": {}},
     "hull configuration has an unknown entry 'bases'"),
    (_curve(lambda c: c.__setitem__("a", "1")), "hull configuration has an unknown entry 'a'"),
    # G_m restricting to itself: the schema has no entry for the inverse image
    ({"schema": "ncdef-hull/1", "kind": "curve",
      "charts": {label: {"variables": ["x"], "inverted": "x", "derivation": {"x": "x"}}
                 for label in ("V", "W")},
      "restrictions": {"V>W": {"x": "x"}}},
     "chart with an inverted variable can only be the target of a restriction"),
])
def test_malformed_curve_configs_exit_one(capsys, tmp_path, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(["hull", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("ncdef: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", MALFORMED_NUMBERS)
def test_malformed_numbers_in_a_derivation_exit_one(capsys, tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_curve(
        lambda c: c["charts"]["U2"]["derivation"].__setitem__("x", text))))
    code, out, err = run_cli(["hull", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"ncdef: {message} in {text!r}\n"


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


@pytest.mark.parametrize("change, message", [
    ("repeat", "more than one matrix for arrow (id:U1,id:U1,U1>U3)"),
    ("nonsense", "arrow (id:U1,id:U1,U1>U3) goes to 'U1>U3', but its entry says 'nonsense'"),
    ("other", "arrow (id:U1,id:U1,U1>U3) goes to 'U1>U3', but its entry says 'U2>U3'"),
], ids=["repeated-arrow", "to-nonsense", "to-another-morphism"])
def test_cohomology_rejects_a_map_entry_that_misnames_its_arrow(capsys, tmp_path,
                                                               change, message):
    # a repeated (of, alpha, beta) would overwrite the earlier matrix, and a
    # "to" other than beta . f . alpha would go unread: both exit 1
    data = json.loads(DOCS_DIAGRAM.read_text())
    (entry,) = [m for m in data["maps"]
                if (m["of"], m["alpha"], m["beta"]) == ("id:U1", "id:U1", "U1>U3")]
    if change == "repeat":
        data["maps"].append({**entry, "matrix": [["0"] * len(line) for line in entry["matrix"]]})
    else:
        entry["to"] = "nonsense" if change == "nonsense" else "U2>U3"
    path = tmp_path / "misnamed.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["cohomology", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("ncdef: ") and message in err


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
    assert payload["hochschild"] == [1, r, 0]
    assert payload["hull"]["relations"] == []
    orders = range(payload["input"]["hull_order"])
    assert payload["hull"]["dims_by_radical_degree"] == [r ** n for n in orders]
    assert payload["verdicts"] == {"hull_versal_zero_defect": True}


def _gm_times(n):
    """G_m with the derivation x^n d/dx: coker is spanned by x^(n - 1)."""
    config = json.loads(DOCS_DIAGRAM.with_name("gm_curve.json").read_text())
    config["charts"]["U"]["derivation"] = {"x": f"x^{n}"}
    return config


def _punctured_cubic_times_y_inverse(k):
    """The cubic less y = 0, its derivation times the unit y^-k: coker(f d)
    = coker(d) for a unit f, and H^1_dR has rank 2 + 3."""
    config = json.loads(DOCS_DIAGRAM.with_name("punctured_cubic_a1_b1_curve.json").read_text())
    config["charts"]["U"]["inverted"] = "y"
    config["charts"]["U"]["derivation"] = {"x": f"2*y^{1 - k}", "y": f"3*x^2*y^-{k} + y^-{k}"}
    return config


@pytest.mark.parametrize("config, r", [
    (_gm_times(10), 1), (_gm_times(12), 1), (_gm_times(20), 1),
    (_punctured_cubic_times_y_inverse(8), 5), (_punctured_cubic_times_y_inverse(12), 5),
], ids=["gm_x10", "gm_x12", "gm_x20", "cubic_y-8", "cubic_y-12"])
def test_stabilization_window_starts_at_the_degree_shift(capsys, tmp_path, config, r):
    # each class sits near the derivation's degree shift, above the default
    # window start: a window that starts below it agrees before the class
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(["hull", str(path), "--format", "json"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["hochschild"] == [1, r, 0]
    assert payload["hull"]["dims_by_radical_degree"] == [r ** n for n in range(4)]


def test_stabilization_beyond_the_degree_ceiling_exits_one(capsys, tmp_path):
    # the window of x^25 d/dx starts at its shift 24, at the ceiling
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_gm_times(25)))
    code, out, err = run_cli(["hull", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "ncdef: cokernel truncation did not stabilize below degree 24 (chart U)\n"


def _parabola_of_degree(n):
    """Q[x, y]/(y - x^2) with d(x) = x^n, d(y) = 2x^(n + 1): normal forms
    rewrite x^(n + 1) one y at a time."""
    chart = {"variables": ["x", "y"], "relations": ["y - x^2"],
             "derivation": {"x": f"x^{n}", "y": f"2*x^{n + 1}"}}
    return {"schema": "ncdef-hull/1", "kind": "curve", "charts": {"U": chart},
            "restrictions": {}}


@pytest.mark.parametrize("config", [
    _gm_times(2000), _gm_times(99999999999), _parabola_of_degree(5000),
], ids=["gm_x2000", "gm_x99999999999", "parabola_x5000"])
def test_a_shift_beyond_the_degree_ceiling_exits_one_before_the_groebner_check(
        capsys, tmp_path, config):
    # the shift leaves no stabilization window below dmax = 24, so the chart
    # is rejected before its tangent certification runs Buchberger on the
    # images, and the normal forms of the parabola's images walk a rewrite
    # chain of 2500 steps without recursing
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(["hull", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "ncdef: cokernel truncation did not stabilize below degree 24 (chart U)\n"


def test_the_degree_ceiling_of_a_chart_is_the_configured_dmax(capsys, tmp_path):
    # x^30 d/dx has shift 29: no window below dmax = 24, one below dmax = 40
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_gm_times(30), "dmax": 40}))
    code, out, err = run_cli(["hull", str(path), "--format", "json"], capsys)
    assert code == 0, err
    assert json.loads(out)["hochschild"] == [1, 1, 0]


def _cyclic_cover(charts):
    """Copies of Q[x] with d/dx whose restrictions list every arrow between
    the named charts, both directions included."""
    chart = {"variables": ["x"], "derivation": {"x": "1"}}
    return {"schema": "ncdef-hull/1", "kind": "curve",
            "charts": {c: chart for c in charts},
            "restrictions": {f"{s}>{t}": {"x": "x"} for s in charts for t in charts if s != t}}


@pytest.mark.parametrize("charts", ["AB", "ABC"])
def test_hull_rejects_a_cover_whose_arrows_form_a_cycle(capsys, tmp_path, charts):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_cyclic_cover(charts)))
    code, out, err = run_cli(["hull", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == ("ncdef: restrictions A>B and B>A close a cycle; "
                   "the charts of a cover form a poset\n")


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
    ("labels", [["1"], ["y^2"]],
     "labels must be a list of distinct strings, got [['1'], ['y^2']]"),
    ("labels", ["1", "1"], "labels must be a list of distinct strings, got ['1', '1']"),
    ("objects", ["U1", "U2", "U3", "U1"], "object 'U1' is listed more than once"),
], ids=["dim-float", "dim-bool", "entry-float", "entry-bool", "labels-nested",
        "labels-repeated", "objects-repeated"])
def test_cohomology_rejects_float_and_bool_numbers(capsys, tmp_path, where, value, message):
    # a float dim would be truncated and a float entry read as its binary
    # approximation; a bool would pass as 0 or 1. A nested label cannot key
    # a report slot, a repeated label would drop a coordinate from it, and a
    # repeated object would count its H^0 twice
    data = json.loads(DOCS_DIAGRAM.read_text())
    if where == "dim":
        data["values"]["id:U1"]["dim"] = value
    elif where == "entry":
        data["maps"][0]["matrix"][0][0] = value
    elif where == "labels":
        data["values"]["id:U2"]["labels"] = value
    else:
        data["objects"] = value
    path = tmp_path / "numbers.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["cohomology", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("ncdef: ") and message in err


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["morphisms"].append(dict(d["morphisms"][0])), "is listed more than once"),
    (lambda d: d["morphisms"].append({"source": d["objects"][0], "target": d["objects"][0]}),
     "to itself: identities are implicit"),
    (lambda d: d["values"].__setitem__("nowhere", {"dim": 0}),
     "value space 'nowhere' names no morphism"),
], ids=["repeated", "self-loop", "unknown-value"])
def test_cohomology_rejects_bad_morphism_entries(capsys, tmp_path, edit, message):
    # at most one morphism per ordered pair of distinct objects, and one
    # value space per morphism: each of these loaded before without a word
    data = json.loads(DOCS_DIAGRAM.with_name("synthetic_hom_seed243.json").read_text())
    edit(data)
    path = tmp_path / "morphisms.json"
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


# an integral entry n written four ways; each loads as the same exact int
_SPELLINGS = [lambda n: n, str, lambda n: f"{2 * n}/2", lambda n: f"{n}/1"]


def _two_object_diagram(spell):
    """A < B with 2-dimensional values. The arrow from A acts by
    diag(2, -3), so eliminating it divides by 2 and -3 and the H^0
    representatives hold 1/2 and 1/3; one entry of the arrow from B is the
    rational "1/2"."""
    eye = [[spell(1), spell(0)], [spell(0), spell(1)]]
    value = {"dim": 2, "labels": ["e0", "e1"]}
    return {
        "schema": "ncdef-diagram/1",
        "objects": ["A", "B"],
        "morphisms": [{"source": "A", "target": "B"}],
        "values": {"id:A": value, "id:B": value, "A>B": value},
        "maps": [
            {"of": "id:A", "alpha": "id:A", "beta": "id:A", "to": "id:A", "matrix": eye},
            {"of": "id:B", "alpha": "id:B", "beta": "id:B", "to": "id:B", "matrix": eye},
            {"of": "A>B", "alpha": "id:A", "beta": "id:B", "to": "A>B", "matrix": eye},
            {"of": "id:A", "alpha": "id:A", "beta": "A>B", "to": "A>B",
             "matrix": [[spell(2), spell(0)], [spell(0), spell(-3)]]},
            {"of": "id:B", "alpha": "A>B", "beta": "id:B", "to": "A>B",
             "matrix": [[spell(1), "1/2"], [spell(0), spell(-1)]]},
        ],
    }


@pytest.mark.parametrize("full", [[], ["--full-complex"]], ids=["normalized", "full"])
def test_integral_entries_spelled_four_ways_give_one_report(capsys, tmp_path, full):
    path = tmp_path / "diagram.json"
    reports = []
    for spell in _SPELLINGS:
        path.write_text(json.dumps(_two_object_diagram(spell)))
        code, out, err = run_cli(["cohomology", str(path), "--format", "json", *full], capsys)
        assert code == 0, err
        reports.append(out)
    assert reports[1:] == reports[:1] * 3
    h0 = json.loads(reports[0])["cohomology_run"]["0"]["representatives"]
    assert "1/2" in json.dumps(h0)
