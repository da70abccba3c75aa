"""JSON interchange: diagram functors and chart configurations.

Schema "ncdef-diagram/1": objects, non-identity morphisms as source/target
pairs (the poset closure must already be listed), one value space per
morphism (identity slots keyed "id:<object>", inclusions "<src>><tgt>"),
and one matrix per morphism-category arrow, row-major with rational-string
entries. The loader rebuilds the functor and re-verifies functoriality.

Schema "ncdef-hull/1" configures ``ncdef hull``: kind "elliptic" names a
plane cubic by (a, b), kind "curve" lists its charts, and ``Curve`` is the
one path from a chart list to the engine. Schema violations raise
InputError; the algebra raises its own typed errors for broken hypotheses.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import AlgebraMorphism, Derivation, PresentedAlgebra
from .cokernels import ChartData
from .diagrams import CategoryError, FiniteCategory, MorFunctor
from .linalg import Matrix, exact

SCHEMA = "ncdef-diagram/1"
HULL_SCHEMA = "ncdef-hull/1"


class InputError(ValueError):
    """A serialized input that does not follow its schema."""


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
    except (InputError, CategoryError):
        raise
    except (AttributeError, LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
        # _parse reads only the document: a missing key, a value of the wrong
        # JSON type or an unparsable entry lands here
        raise InputError(f"malformed diagram ({type(exc).__name__}: {exc})") from exc
    functor = MorFunctor(base, dims, mats, labels)
    functor.check_functor()
    return base, functor


def _parse(data: dict) -> tuple[FiniteCategory, dict, dict, dict]:
    if data.get("schema") != SCHEMA:
        raise InputError(
            f"expected schema {SCHEMA!r}, got {data.get('schema')!r}"
        )
    objects = data["objects"]
    relations = [(m["source"], m["target"]) for m in data["morphisms"]]
    listed = set()
    for src, tgt in relations:
        if src == tgt:
            raise InputError(f"morphism entry from {src!r} to itself: identities are implicit")
        if (src, tgt) in listed:
            raise InputError(f"morphism {src}>{tgt} is listed more than once")
        listed.add((src, tgt))
    base = FiniteCategory.poset(objects, relations)
    for name in base.morphisms:
        if name not in data["values"]:
            raise InputError(f"no value space for morphism {name!r}")
    for name in data["values"]:
        if name not in base.morphisms:
            raise InputError(f"value space {name!r} names no morphism")
    dims = {name: v["dim"] for name, v in data["values"].items()}
    for name, dim in dims.items():
        if type(dim) is not int or dim < 0:  # a float would be truncated, a bool read as 0 or 1
            raise InputError(f"value space {name!r}: dim must be an integer >= 0, got {dim!r}")
    labels = {}
    for name, v in data["values"].items():
        lab = v.get("labels", [])
        # a label keys a coordinate in the report: a list would not hash,
        # and a repeated one would overwrite its twin's coordinate
        if (type(lab) is not list or any(type(x) is not str for x in lab)
                or len(set(lab)) != len(lab)):
            raise InputError(f"value space {name!r}: labels must be a list of distinct "
                             f"strings, got {lab!r}")
        labels[name] = lab if len(lab) == dims[name] else [
            f"b{k}" for k in range(dims[name])
        ]
    mats = {}
    # one value per distinct entry string: parsing is most of a load. Only
    # strings are cached, so a float or a bool never hits an equal int's entry.
    # A string is read by linalg.exact, so an integral entry is an int
    parsed = {}
    for entry in data["maps"]:
        f, alpha, beta = entry["of"], entry["alpha"], entry["beta"]
        g = base.compose(alpha, base.compose(f, beta))
        if (f, alpha, beta) in mats:
            raise InputError(f"more than one matrix for arrow ({f},{alpha},{beta})")
        if entry["to"] != g:
            raise InputError(
                f"arrow ({f},{alpha},{beta}) goes to {g!r}, but its entry says {entry['to']!r}"
            )
        lines = entry["matrix"]
        if len(lines) != dims[g] or any(len(line) != dims[f] for line in lines):
            raise InputError(
                f"matrix for ({f},{alpha},{beta}) has the wrong shape"
            )
        rows = []
        for line in lines:
            row = {}
            for j, x in enumerate(line):
                if x in parsed:
                    e = parsed[x]
                elif type(x) is str:
                    e = parsed[x] = exact(x)
                elif type(x) is int:
                    e = x
                else:  # a float would be read as its binary approximation
                    raise InputError(
                        f"matrix for ({f},{alpha},{beta}): entry {x!r} is not a "
                        "rational string or an integer"
                    )
                if e:
                    row[j] = e
            rows.append(row)
        mats[(f, alpha, beta)] = Matrix.from_sparse(dims[g], dims[f], rows)
    for (f, alpha, beta, _g) in base.mor_arrows():
        if (f, alpha, beta) not in mats:
            raise InputError(f"missing matrix for arrow ({f},{alpha},{beta})")
    return base, dims, mats, labels


def load_functor(path) -> tuple[FiniteCategory, MorFunctor]:
    with open(path, encoding="utf-8") as fh:
        return functor_from_dict(json.load(fh))


def dump_functor(base: FiniteCategory, functor: MorFunctor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(functor_to_dict(base, functor), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# chart configurations (schema ncdef-hull/1)


def load_hull_config(path) -> tuple[dict, int, int]:
    """An ncdef-hull/1 document with its hull order and dmax (defaults 4, 24)."""
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise InputError("hull configuration is not a JSON object")
    if config.get("schema") != HULL_SCHEMA:
        raise InputError(f"expected schema {HULL_SCHEMA!r}, got {config.get('schema')!r}")
    if config.get("kind") not in ("elliptic", "curve"):
        raise InputError(f"unsupported configuration kind {config.get('kind')!r}")
    _known(config, _HULL_KEYS[config["kind"]], "hull configuration")
    limits = [config.get("hull_order", 4), config.get("dmax", 24)]
    for key, value in zip(("hull_order", "dmax"), limits):
        if type(value) is not int:  # a float would be truncated, a bool read as 0 or 1
            raise InputError(f"{key} must be an integer, got {value!r}")
    return config, limits[0], limits[1]


def elliptic_coefficients(config: dict) -> tuple[int | Fraction, int | Fraction]:
    """(a, b) of a kind "elliptic" document, as rational strings or integers."""
    for key in ("a", "b"):
        if key not in config:
            raise InputError(f"hull configuration has no entry {key!r}")
        if type(config[key]) not in (str, int):
            raise InputError(f"bad hull configuration entry: {key} is not a rational string")
    try:
        return exact(config["a"]), exact(config["b"])
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad hull configuration entry: {exc}") from exc


class Curve:
    """A chart configuration loaded from a kind "curve" document: the cover
    ``poset`` on the charts, one ChartData per chart in ``charts``, one
    AlgebraMorphism per arrow "A>B" in ``restrictions``, and the optional
    basis choices that ``EngineContext.from_charts`` certifies (None when
    absent): ``ext1`` monomials per chart, ``h0`` classes (an element per
    chart) and the ``h1`` cocycle (an element per arrow). The charts are
    certified against the degree ceiling ``d_max``; ``ExtDiagram`` rejects
    arrows that close a cycle."""

    def __init__(self, data: dict, d_max: int = 24):
        self.charts, self.restrictions = {}, {}
        charts = _get(data, "charts", dict, "configuration")
        if not charts:
            raise InputError("configuration lists no charts")
        for label, chart in charts.items():
            where = f"chart {label!r}"
            _known(chart, _CHART_KEYS, where)
            algebra = PresentedAlgebra(
                _strings(_get(chart, "variables", list, where), where),
                _strings(_get(chart, "relations", list, where, []), where),
                inverted=_get(chart, "inverted", str, where, None), name=label)
            images = _images(_get(chart, "derivation", dict, where), algebra.variables, where)
            derivation = Derivation(algebra, images, name=f"d_{label}")
            self.charts[label] = ChartData(label, algebra, derivation, d_max)
        for name, images in _get(data, "restrictions", dict, "configuration").items():
            src, _, tgt = name.partition(">")
            if src not in self.charts or tgt not in self.charts or src == tgt:
                raise InputError(f"restriction {name!r} is not an arrow 'A>B' between two charts")
            source = self.charts[src].algebra
            if source.inverted:
                raise InputError(
                    f"restriction {name!r}: chart {src!r} inverts {source.inverted!r}, and a "
                    "chart with an inverted variable can only be the target of a restriction; "
                    "write the inverse as a relation with one more variable instead")
            images = _images(images, source.variables, f"restriction {name!r}")
            self.restrictions[name] = AlgebraMorphism(source, self.charts[tgt].algebra,
                                                      images, name=name)
        arrows = [tuple(name.split(">")) for name in self.restrictions]
        self.poset = FiniteCategory.poset(list(self.charts), arrows)
        bases = _known(_get(data, "bases", dict, "configuration", {}), _BASES_KEYS, "bases")
        self.ext1 = _get(bases, "ext1", dict, "bases", None)
        self.h0 = _get(bases, "h0", list, "bases", None)
        self.h1 = _get(bases, "h1", dict, "bases", None)
        for label, monomials in (self.ext1 or {}).items():
            if label not in self.charts:
                raise InputError(f"bases ext1 names no chart {label!r}")
            _strings(monomials, "bases ext1")
        for xi in self.h0 or []:
            _images(xi, self.charts, "bases h0")
        if self.h1 is not None:
            _images(self.h1, self.restrictions, "bases h1")


_REQUIRED = object()
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}
# the entries each object of a hull configuration may hold
_HULL_KEYS = {
    "elliptic": ("schema", "kind", "a", "b", "hull_order", "dmax"),
    "curve": ("schema", "kind", "charts", "restrictions", "bases", "hull_order", "dmax"),
}
_CHART_KEYS = ("variables", "relations", "inverted", "derivation")
_BASES_KEYS = ("ext1", "h0", "h1")


def _known(entry, keys, where: str):
    """entry, checked to be a JSON object with no key outside `keys`: a
    misspelled key would otherwise be read as absent."""
    if not isinstance(entry, dict):
        raise InputError(f"{where} is not a JSON object")
    for key in entry:
        if key not in keys:
            raise InputError(f"{where} has an unknown entry {key!r} "
                             f"(expected one of {', '.join(keys)})")
    return entry


def _get(entry, key: str, kind: type, where: str, default=_REQUIRED):
    """entry[key], checked to be of Python type `kind`; default when absent."""
    if not isinstance(entry, dict):
        raise InputError(f"{where} is not a JSON object")
    if key not in entry:
        if default is _REQUIRED:
            raise InputError(f"{where} has no entry {key!r}")
        return default
    if not isinstance(entry[key], kind):
        raise InputError(f"{where}: entry {key!r} is not {_JSON_TYPES[kind]}")
    return entry[key]


def _strings(value, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise InputError(f"{where}: expected a list of strings")
    return value


def _images(value, keys, where: str) -> dict:
    """A JSON object mapping exactly `keys` to expression strings."""
    if (not isinstance(value, dict) or sorted(value) != sorted(keys)
            or not all(isinstance(s, str) for s in value.values())):
        raise InputError(f"{where}: expected an expression string for each of {list(keys)}")
    return value
