"""Exact integer linear algebra on small dense matrices.

Everything here is plain Python ints (arbitrary precision) in row-major
lists of lists.  Matrices are tiny (a handful of rows/columns), so the
classical Smith normal form with full transform tracking is both exact
and fast enough.
"""

from __future__ import annotations

from typing import Optional, Sequence

Matrix = list[list[int]]
Vector = list[int]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def smith(m: Sequence[Sequence[int]], ncols: int):
    """Smith normal form with transforms.

    Returns (u, d, v, uinv) with u*m*v == d, u and v unimodular,
    d diagonal with nonnegative entries satisfying d[k] | d[k+1].
    """
    nrows = len(m)
    d = [list(row) for row in m]
    for row in d:
        assert len(row) == ncols
    u, uinv = identity(nrows), identity(nrows)
    v = identity(ncols)

    def row_add(i: int, j: int, c: int) -> None:
        # D <- E D with E = I + c*E_ij; U <- E U; Uinv <- Uinv E^-1
        for k in range(ncols):
            d[i][k] += c * d[j][k]
        for k in range(nrows):
            u[i][k] += c * u[j][k]
        for k in range(nrows):
            uinv[k][j] -= c * uinv[k][i]

    def col_add(j: int, i: int, c: int) -> None:
        # col j += c * col i; V <- V F
        for k in range(nrows):
            d[k][j] += c * d[k][i]
        for k in range(ncols):
            v[k][j] += c * v[k][i]

    def row_swap(i: int, j: int) -> None:
        if i == j:
            return
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for k in range(nrows):
            uinv[k][i], uinv[k][j] = uinv[k][j], uinv[k][i]

    def col_swap(i: int, j: int) -> None:
        if i == j:
            return
        for k in range(nrows):
            d[k][i], d[k][j] = d[k][j], d[k][i]
        for k in range(ncols):
            v[k][i], v[k][j] = v[k][j], v[k][i]

    def row_neg(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for k in range(nrows):
            uinv[k][i] = -uinv[k][i]

    def eliminate_from(t0: int) -> None:
        t = t0
        while t < min(nrows, ncols):
            piv = None
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    x = d[i][j]
                    if x != 0 and (best is None or abs(x) < best):
                        piv, best = (i, j), abs(x)
            if piv is None:
                break
            row_swap(t, piv[0])
            col_swap(t, piv[1])
            while True:
                restart = False
                for i in range(t + 1, nrows):
                    if d[i][t] != 0:
                        q = d[i][t] // d[t][t]
                        row_add(i, t, -q)
                        if d[i][t] != 0:
                            row_swap(t, i)
                            restart = True
                if restart:
                    continue
                for j in range(t + 1, ncols):
                    if d[t][j] != 0:
                        q = d[t][j] // d[t][t]
                        col_add(j, t, -q)
                        if d[t][j] != 0:
                            col_swap(t, j)
                            restart = True
                if not restart:
                    break
            t += 1

    eliminate_from(0)
    for k in range(min(nrows, ncols)):
        if d[k][k] < 0:
            row_neg(k)
    # enforce the divisibility chain d[k] | d[k+1]
    while True:
        bad = None
        for k in range(min(nrows, ncols) - 1):
            a, b = d[k][k], d[k + 1][k + 1]
            if a != 0 and b % a != 0:
                bad = k
                break
        if bad is None:
            break
        col_add(bad, bad + 1, 1)
        eliminate_from(bad)
        for k in range(min(nrows, ncols)):
            if d[k][k] < 0:
                row_neg(k)
    return u, d, v, uinv


def diagonal(d: Sequence[Sequence[int]], length: int) -> Vector:
    """Diagonal of a Smith form, padded with zeros to the given length."""
    nrows = len(d)
    ncols = len(d[0]) if d else 0
    return [d[k][k] if k < nrows and k < ncols else 0 for k in range(length)]


def integer_kernel(m: Sequence[Sequence[int]], ncols: int) -> list[Vector]:
    """Basis of {x in Z^ncols : m @ x == 0}."""
    _, d, v, _ = smith(m, ncols)
    diag = diagonal(d, ncols)
    return [[v[r][k] for r in range(ncols)] for k in range(ncols) if diag[k] == 0]


def solve_integer(m: Sequence[Sequence[int]], ncols: int,
                  b: Sequence[int]) -> Optional[Vector]:
    """One integer solution x of m @ x == b, or None."""
    nrows = len(m)
    u, d, v, _ = smith(m, ncols)
    c = mat_vec(u, list(b))
    z = [0] * ncols
    for k in range(nrows):
        dk = d[k][k] if k < ncols else 0
        if dk != 0:
            if c[k] % dk != 0:
                return None
            z[k] = c[k] // dk
        elif c[k] != 0:
            return None
    return mat_vec(v, z)


def image_basis(vectors: Sequence[Sequence[int]], dim: int) -> list[Vector]:
    """Basis of the lattice in Z^dim spanned by the given vectors."""
    if not vectors:
        return []
    a = [[vec[i] for vec in vectors] for i in range(dim)]  # columns = vectors
    _, d, _, uinv = smith(a, len(vectors))
    basis = []
    for k in range(min(dim, len(vectors))):
        if d[k][k] != 0:
            basis.append([uinv[i][k] * d[k][k] for i in range(dim)])
    return basis


def _with_slack(rows_exact: Sequence[Sequence[int]],
                rows_mod: Sequence[tuple[Sequence[int], int]]) -> Matrix:
    """The exact rows, then each row mod m with a slack column m * e_k."""
    nmod = len(rows_mod)
    m: Matrix = [list(row) + [0] * nmod for row in rows_exact]
    for k, (row, mod) in enumerate(rows_mod):
        assert mod >= 1
        m.append(list(row) + [mod if j == k else 0 for j in range(nmod)])
    return m


def kernel_with_moduli(rows_exact: Sequence[Sequence[int]],
                       rows_mod: Sequence[tuple[Sequence[int], int]],
                       nvars: int) -> list[Vector]:
    """Generators of {x : rows_exact @ x == 0 and row . x == 0 mod m per (row, m)}.

    Each congruence gets a slack variable; the slack block is projected away,
    then the projection is reduced back to an honest lattice basis.
    """
    full = integer_kernel(_with_slack(rows_exact, rows_mod),
                          nvars + len(rows_mod))
    projected = [vec[:nvars] for vec in full]
    return image_basis(projected, nvars)


def solve_with_moduli(rows_exact: Sequence[Sequence[int]],
                      b_exact: Sequence[int],
                      rows_mod: Sequence[tuple[Sequence[int], int]],
                      b_mod: Sequence[int],
                      nvars: int) -> Optional[Vector]:
    """One x with rows_exact @ x == b_exact and row . x == b mod m per row."""
    sol = solve_integer(_with_slack(rows_exact, rows_mod),
                        nvars + len(rows_mod), list(b_exact) + list(b_mod))
    return None if sol is None else sol[:nvars]
