import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stacktilt
from oracles import determinant, lattice_contains, mat_mul
from stacktilt import _intlinalg as la
from stacktilt.errors import InternalInvariantBroken

matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-20, 20), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def is_identity(m):
    return all(x == (1 if i == j else 0)
               for i, row in enumerate(m) for j, x in enumerate(row))


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_smith_properties(m):
    ncols = len(m[0])
    u, d, v, uinv = la.smith(m, ncols)
    assert mat_mul(mat_mul(u, m), v) == d
    assert is_identity(mat_mul(u, uinv))
    assert abs(determinant(v)) == 1
    diag = la.diagonal(d, min(len(m), ncols))
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0 and b != 0:
            assert b % a == 0
        if a == 0:
            assert b == 0


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_kernel_annihilates(m):
    ncols = len(m[0])
    for vec in la.integer_kernel(m, ncols):
        assert all(x == 0 for x in la.mat_vec(m, vec))


def test_solve_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        x = [rng.randint(-5, 5) for _ in range(c)]
        b = la.mat_vec(m, x)
        sol = la.solve_integer(m, c, b)
        assert sol is not None
        assert la.mat_vec(m, sol) == b


def test_solve_unsolvable():
    assert la.solve_integer([[2]], 1, [1]) is None
    assert la.solve_integer([[1], [1]], 1, [1, 2]) is None


def test_image_basis_spans():
    vecs = [[2, 0], [0, 2], [1, 1]]
    basis = la.image_basis(vecs, 2)
    assert len(basis) == 2
    for v in vecs:
        assert lattice_contains(basis, v)
    assert not lattice_contains(basis, [1, 0])


def test_kernel_with_moduli():
    # x + y = 0 exactly and x = 0 mod 2
    basis = la.kernel_with_moduli([[1, 1]], [([1, 0], 2)], 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v[0] % 2 == 0
    assert lattice_contains(basis, [2, -2])
    assert not lattice_contains(basis, [1, -1])


def test_solve_with_moduli():
    sol = la.solve_with_moduli([[1, 1]], [5], [([1, 0], 3)], [1], 2)
    assert sol is not None
    assert sol[0] + sol[1] == 5 and sol[0] % 3 == 1


def test_internal_checks_raise_under_python_O():
    """A ragged matrix and a modulus below 1 are internal faults; they are
    raised as such, not by `assert`, so `python -O` keeps them."""
    with pytest.raises(InternalInvariantBroken):
        la.smith([[1, 2], [3]], 2)
    with pytest.raises(InternalInvariantBroken):
        la.kernel_with_moduli([[1, 1]], [([1, 0], 0)], 2)


def test_library_has_no_assert():
    src = Path(stacktilt.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
