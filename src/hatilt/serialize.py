"""Stable exports: JSON schema 1, DOT and TeX renderings.

All JSON documents carry ``"schema": 1`` and are emitted with sorted keys
and fixed separators, so identical inputs produce byte-identical output.
Rational coefficients travel as strings ("-1", "2/3"); paths are arrow-id
lists read in traversal order.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .pathcomb import LatticePath
from .quiveralg import Quiver

SCHEMA = 1


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def path_to_doc(path: LatticePath) -> dict:
    return {"schema": SCHEMA, "d": path.d, "n": path.n, "steps": path.steps}


def quiver_to_doc(quiver: Quiver, relations=()) -> dict:
    return {
        "schema": SCHEMA,
        "vertices": [{"id": v.id, "label": v.label} for v in quiver.vertices],
        "arrows": [
            {"id": a.id, "src": a.src, "tgt": a.tgt, "label": a.label}
            for a in quiver.arrows
        ],
        "relations": [
            [
                {"coeff": frac_str(c), "path": list(p)}
                for c, p in rel.terms
            ]
            for rel in relations
        ],
    }


def report_to_doc(params: dict, claims: list, version: str, config: dict) -> dict:
    return {
        "schema": SCHEMA,
        "params": params,
        "claims": claims,
        "version": version,
        "config": config,
    }


# -- DOT and TeX --------------------------------------------------------------


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def quiver_to_dot(quiver: Quiver, relations=(), name="quiver") -> str:
    """DOT digraph; relations are listed as trailing comments and annotate
    their member edges through a ``comment`` attribute."""
    arrow_notes: dict[int, list[str]] = {}
    rel_lines = []
    for idx, rel in enumerate(relations):
        desc = " + ".join(
            f"{frac_str(c)}*[" + ",".join(str(a) for a in p) + "]" for c, p in rel.terms
        )
        rel_lines.append(f"// relation {idx}: {desc}")
        for _, p in rel.terms:
            for aid in p:
                arrow_notes.setdefault(aid, []).append(f"rel{idx}")
    lines = [f"digraph {name} {{"]
    for v in quiver.vertices:
        lines.append(f"  v{v.id} [label={_dot_quote(v.label)}];")
    for a in quiver.arrows:
        attrs = [f"label={_dot_quote(a.label)}"]
        if a.id in arrow_notes:
            attrs.append(f"comment={_dot_quote(' '.join(arrow_notes[a.id]))}")
        lines.append(f"  v{a.src} -> v{a.tgt} [{', '.join(attrs)}];")
    lines.extend("  " + line for line in rel_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def quiver_to_tex(quiver: Quiver, relations=()) -> str:
    """Tabular rendering of the quiver data (no drawing)."""
    lines = [
        "\\begin{tabular}{lll}",
        "\\hline",
        "vertex & label & \\\\",
        "\\hline",
    ]
    for v in quiver.vertices:
        lines.append(f"{v.id} & {v.label} & \\\\")
    lines.extend(["\\hline", "arrow & source & target \\\\", "\\hline"])
    for a in quiver.arrows:
        lines.append(f"{a.label} & {a.src} & {a.tgt} \\\\")
    lines.append("\\hline")
    if relations:
        lines.extend(["relation & terms & \\\\", "\\hline"])
        for idx, rel in enumerate(relations):
            desc = " + ".join(
                f"{frac_str(c)}\\,[" + ",".join(str(x) for x in p) + "]"
                for c, p in rel.terms
            )
            lines.append(f"{idx} & ${desc}$ & \\\\")
        lines.append("\\hline")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"
