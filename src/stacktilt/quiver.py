"""Quivers with labelled arrows and optional commutativity relations.

Vertices are canonical coordinate tuples; arrow labels are monomial
strings in the degree variables x1..xn ("x1", "x2*x4", "x1^2").  One
arrow per irreducible monomial, so parallel arrows carry multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def monomial_label(exponents: Sequence[int]) -> str:
    parts = []
    for i, a in enumerate(exponents):
        if a == 1:
            parts.append(f"x{i + 1}")
        elif a > 1:
            parts.append(f"x{i + 1}^{a}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True, order=True)
class Arrow:
    source: tuple
    target: tuple
    label: str


@dataclass(frozen=True, order=True)
class Relation:
    """Two parallel length-two paths declared equal (commutativity square)."""

    source: tuple
    target: tuple
    path_a: tuple[str, str]
    path_b: tuple[str, str]


@dataclass
class QuiverPresentation:
    vertices: tuple
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...] = ()

    def __post_init__(self):
        self.vertices = tuple(sorted(self.vertices))
        self.arrows = tuple(sorted(self.arrows))
        self.relations = tuple(sorted(self.relations))

    def to_json(self) -> dict:
        return {
            "vertices": [list(v) for v in self.vertices],
            "arrows": [
                {"source": list(a.source), "target": list(a.target),
                 "label": a.label}
                for a in self.arrows
            ],
            "relations": [
                {"source": list(r.source), "target": list(r.target),
                 "path_a": list(r.path_a), "path_b": list(r.path_b)}
                for r in self.relations
            ],
        }


def _vertex_name(v: tuple) -> str:
    return "v_" + "_".join(str(c).replace("-", "m") for c in v)


def _vertex_label(v: tuple) -> str:
    return "(" + ",".join(str(c) for c in v) + ")" if len(v) != 1 else str(v[0])


def to_dot(qp: QuiverPresentation, name: str) -> str:
    lines = [f'digraph "{name}" {{']
    for v in qp.vertices:
        lines.append(f'  {_vertex_name(v)} [label="{_vertex_label(v)}"];')
    for a in qp.arrows:
        lines.append(
            f'  {_vertex_name(a.source)} -> {_vertex_name(a.target)}'
            f' [label="{a.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
