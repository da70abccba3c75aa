"""Structured report emission: deterministic JSON and paper-layout Markdown.

Both renderings are byte-identical across runs on identical inputs: keys
keep their construction order, rationals are formatted "p/q", and
wall-clock timing stays out of the report (the CLI logs it on stderr).
"""

from __future__ import annotations

import json


class Report:
    def __init__(self, payload: dict, elapsed: float | None = None):
        self.payload = payload
        self.elapsed = elapsed

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2) + "\n"

    def to_markdown(self) -> str:
        p = self.payload
        lines = ["# ncdef report", ""]
        if "input" in p:
            inp = p["input"]
            curve = f"a = {inp['a']}, b = {inp['b']}, " if "a" in inp else ""
            lines.append(
                f"Input: {curve}hull order {inp['hull_order']}, dmax {inp['dmax']}."
            )
            if "discriminant" in p:
                lines.append(f"Discriminant {p['discriminant']} ({p['regime']} regime).")
            if "hochschild" in p:
                dims = ", ".join(str(n) for n in p["hochschild"])
                lines.append(f"Global cohomology: (HH^0, HH^1, HH^2) = ({dims}).")
            lines.append("")
        if "ext1_bases" in p:
            lines.append("## Ext^1 bases (cokernel representatives)")
            lines.append("")
            lines.append("| slot | basis |")
            lines.append("|---|---|")
            for slot, basis in p["ext1_bases"].items():
                lines.append(f"| {slot} | {', '.join(basis)} |")
            lines.append("")
        if "cohomology" in p:
            dims = p["cohomology"]["dims"]
            lines.append(
                f"## Global cohomology: (HH^0, HH^1, HH^2) = "
                f"({dims['HH0']}, {dims['HH1']}, {dims['HH2']})"
            )
            lines.append("")
            lines.append("| n | classes |")
            lines.append("|---|---|")
            deg0 = p["cohomology"]["degree0_classes"]
            row = "; ".join(
                f"{name} = ({', '.join(parts.values())})" for name, parts in deg0.items()
            )
            lines.append(f"| 1 | {row} |")
            deg1 = p["cohomology"]["degree1_classes"]
            row = "; ".join(
                f"{name} = ({', '.join(parts.values())})" for name, parts in deg1.items()
            )
            lines.append(f"| 2 | {row} |")
            lines.append("")
        if "cup_products" in p:
            lines.append("## Cup products")
            lines.append("")
            for pair, value in p["cup_products"].items():
                lines.append(f"- {pair} = {value}")
            lines.append("")
        if "hull" in p:
            hull = p["hull"]
            lines.append("## Pro-representing hull")
            lines.append("")
            rels = ", ".join(hull["relations"]) if hull["relations"] else "(none)"
            lines.append(f"Relation ideal generators: {rels}")
            for order, new in hull["new_relations_by_order"].items():
                label = ", ".join(new) if new else "none"
                lines.append(f"- new relations entering order {order}: {label}")
            dims = ", ".join(str(d) for d in hull["dims_by_radical_degree"])
            lines.append(f"Truncated hull dimensions by radical degree: {dims}")
            lines.append("")
        if "versal_family" in p:
            vf = p["versal_family"]
            lines.append("## Versal family")
            lines.append("")
            for t, per in vf["psi"].items():
                parts = "; ".join(f"{k}: {v}" for k, v in per.items())
                lines.append(f"- operator correction for {t}: {parts}")
            for t, per in vf["tau"].items():
                parts = "; ".join(f"{k}: {v}" for k, v in per.items())
                lines.append(f"- restriction correction for {t}: {parts}")
            lines.append(
                f"- restriction multiplier {vf['restriction_multiplier']}, "
                f"exponential truncated at order {vf['exp_series_order']}"
            )
            lines.append("")
        if "verdicts" in p:
            lines.append("## Verdicts")
            lines.append("")
            for key, value in p["verdicts"].items():
                lines.append(f"- {key}: {'pass' if value else 'FAIL'}")
            lines.append("")
        if "cohomology_run" in p:
            run = p["cohomology_run"]
            lines.append("## Resolving-complex cohomology")
            lines.append("")
            for degree, data in run.items():
                lines.append(f"- H^{degree}: dimension {data['dim']}")
            lines.append("")
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "md":
            return self.to_markdown()
        raise ValueError(f"unknown format {fmt!r}")
