"""JSON interchange for diagram functors on cover posets.

Schema "ncdef-diagram/1": objects, non-identity morphisms as source/target
pairs (the poset closure must already be listed), one value space per
morphism (identity slots keyed "id:<object>", inclusions "<src>><tgt>"),
and one matrix per morphism-category arrow, row-major with rational-string
entries. The loader rebuilds the functor and re-verifies functoriality.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .diagrams import FiniteCategory, MorFunctor
from .linalg import Matrix

SCHEMA = "ncdef-diagram/1"


class DiagramFormatError(ValueError):
    pass


def functor_to_dict(base: FiniteCategory, functor: MorFunctor) -> dict:
    morphisms = [
        {"source": m.src, "target": m.tgt}
        for name, m in base.morphisms.items()
        if not base.is_identity(name)
    ]
    morphisms.sort(key=lambda d: (base.objects.index(d["source"]),
                                  base.objects.index(d["target"])))
    values = {}
    for name in base.sorted_morphisms():
        values[name] = {
            "dim": functor.dims[name],
            "labels": list(functor.labels[name]),
        }
    maps = []
    for (f, alpha, beta, g) in sorted(base.mor_arrows()):
        m = functor.matrix(f, alpha, beta)
        lines = []
        for row in m.sparse:
            line = ["0"] * m.cols
            for j, e in row.items():
                line[j] = str(e)
            lines.append(line)
        maps.append({
            "of": f,
            "alpha": alpha,
            "beta": beta,
            "to": g,
            "matrix": lines,
        })
    return {
        "schema": SCHEMA,
        "objects": list(base.objects),
        "morphisms": morphisms,
        "values": values,
        "maps": maps,
    }


def functor_from_dict(data: dict) -> tuple[FiniteCategory, MorFunctor]:
    try:
        base, dims, mats, labels = _parse(data)
    except DiagramFormatError:
        raise
    except (AttributeError, LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
        # _parse reads only the document: a missing key, a value of the wrong
        # JSON type or an unparsable entry lands here
        raise DiagramFormatError(f"malformed diagram ({type(exc).__name__}: {exc})") from exc
    functor = MorFunctor(base, dims, mats, labels)
    functor.check_functor()
    return base, functor


def _parse(data: dict) -> tuple[FiniteCategory, dict, dict, dict]:
    if data.get("schema") != SCHEMA:
        raise DiagramFormatError(
            f"expected schema {SCHEMA!r}, got {data.get('schema')!r}"
        )
    objects = data["objects"]
    relations = [(m["source"], m["target"]) for m in data["morphisms"]]
    base = FiniteCategory.poset(objects, relations)
    for name in base.morphisms:
        if name not in data["values"]:
            raise DiagramFormatError(f"no value space for morphism {name!r}")
    dims = {name: int(v["dim"]) for name, v in data["values"].items()}
    labels = {}
    for name, v in data["values"].items():
        lab = list(v.get("labels", []))
        labels[name] = lab if len(lab) == dims[name] else [
            f"b{k}" for k in range(dims[name])
        ]
    mats = {}
    # one Fraction per distinct entry string: parsing is most of a load
    parsed = {}
    for entry in data["maps"]:
        f, alpha, beta = entry["of"], entry["alpha"], entry["beta"]
        g = base.compose(alpha, base.compose(f, beta))
        lines = entry["matrix"]
        if len(lines) != dims[g] or any(len(line) != dims[f] for line in lines):
            raise DiagramFormatError(
                f"matrix for ({f},{alpha},{beta}) has the wrong shape"
            )
        rows = []
        for line in lines:
            row = {}
            for j, x in enumerate(line):
                e = parsed[x] if x in parsed else parsed.setdefault(x, Fraction(x))
                if e:
                    row[j] = e
            rows.append(row)
        mats[(f, alpha, beta)] = Matrix.from_sparse(dims[g], dims[f], rows)
    for (f, alpha, beta, _g) in base.mor_arrows():
        if (f, alpha, beta) not in mats:
            raise DiagramFormatError(f"missing matrix for arrow ({f},{alpha},{beta})")
    return base, dims, mats, labels


def load_functor(path) -> tuple[FiniteCategory, MorFunctor]:
    with open(path, encoding="utf-8") as fh:
        return functor_from_dict(json.load(fh))


def dump_functor(base: FiniteCategory, functor: MorFunctor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(functor_to_dict(base, functor), fh, indent=2)
        fh.write("\n")
