"""Quivers with labelled arrows and optional commutativity relations.

Vertices are canonical coordinate tuples; arrow labels are monomial
strings in the degree variables x1..xn ("x1", "x2*x4", "x1^2").  One
arrow per irreducible monomial, so parallel arrows carry multiplicity.
The relations of type A-tilde are one rule, `commuting_squares`, which
both sides of the rank-one certificate apply to the steps they derive.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence


def monomial_label(exponents: Sequence[int]) -> str:
    parts = []
    for i, a in enumerate(exponents):
        if a == 1:
            parts.append(f"x{i + 1}")
        elif a > 1:
            parts.append(f"x{i + 1}^{a}")
    return "*".join(parts) if parts else "1"


class Arrow(NamedTuple):
    source: tuple
    target: tuple
    label: str


class Relation(NamedTuple):
    """Two parallel length-two paths declared equal (commutativity square)."""

    source: tuple
    target: tuple
    path_a: tuple[str, str]
    path_b: tuple[str, str]


def commuting_squares(steps: dict, n: int) -> list[Relation]:
    """One relation x_i x_j = x_j x_i per square of single steps.

    steps[v, i] is the target of the arrow x_{i+1} out of v, for the
    arrows present.  A square out of v needs all four steps
    v -x_i-> w -x_j-> u and v -x_j-> w' -x_i-> u; the degrees commute, so
    both paths end at u.
    """
    relations = []
    for v in dict.fromkeys(v for v, _ in steps):
        for i, j in itertools.combinations(range(n), 2):
            vi, vj = steps.get((v, i)), steps.get((v, j))
            if (vi, j) in steps and (vj, i) in steps:
                relations.append(Relation(
                    source=v, target=steps[vi, j],
                    path_a=(f"x{i + 1}", f"x{j + 1}"),
                    path_b=(f"x{j + 1}", f"x{i + 1}")))
    return relations


class QuiverPresentation:
    """Vertices, arrows and relations, each held sorted; equal exactly
    when all three are, and unhashable, as it is mutable."""

    def __init__(self, vertices: tuple, arrows: tuple[Arrow, ...],
                 relations: tuple[Relation, ...] = ()):
        self.vertices = tuple(sorted(vertices))
        self.arrows = tuple(sorted(arrows))
        self.relations = tuple(sorted(relations))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.vertices, self.arrows, self.relations)
                == (other.vertices, other.arrows, other.relations))

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
