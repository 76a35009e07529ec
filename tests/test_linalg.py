import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cliffharm.exact import I, ONE, ZERO, gr
from cliffharm.linalg import (
    Matrix,
    Monomial,
    ScaledMatrix,
    gain_graph_nullspace,
    hs_inner,
    scaled_hs_inner,
)
from oracles import UNITS, gram_schmidt, satisfies, sparse_nullspace


def _rand_matrix(rng, rows, cols):
    return Matrix(
        [
            [gr(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                rng.randint(-2, 2)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def test_matrix_ring_ops():
    rng = random.Random(0)
    a = _rand_matrix(rng, 3, 3)
    b = _rand_matrix(rng, 3, 3)
    c = _rand_matrix(rng, 3, 3)
    ident = Matrix.identity(3)
    assert a @ ident == a and ident @ a == a
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c
    assert (a + b).conj_transpose() == a.conj_transpose() + b.conj_transpose()
    assert (a @ b).conj_transpose() == b.conj_transpose() @ a.conj_transpose()
    assert (a @ b).trace() == (b @ a).trace()
    assert (-a + a).is_zero()


def test_kron_mixed_product():
    rng = random.Random(1)
    a = _rand_matrix(rng, 2, 2)
    b = _rand_matrix(rng, 3, 3)
    c = _rand_matrix(rng, 2, 2)
    d = _rand_matrix(rng, 3, 3)
    assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)
    assert a.kron(b).trace() == a.trace() * b.trace()


def test_hs_inner_normalization():
    ident = Matrix.identity(4)
    assert hs_inner(ident, ident) == gr(1)
    a = Matrix([[gr(0, 1), gr(0)], [gr(0), gr(0)]])
    assert hs_inner(a, a) == gr(Fraction(1, 2))
    b = Matrix([[gr(0), gr(1)], [gr(0), gr(0)]])
    assert hs_inner(a, b) == gr(0)


def test_monomial_matches_dense():
    rng = random.Random(2)
    for _ in range(50):
        size = 4
        p1 = list(range(size)); rng.shuffle(p1)
        p2 = list(range(size)); rng.shuffle(p2)
        phases = [rng.randrange(4) for _ in range(size)]
        phases2 = [rng.randrange(4) for _ in range(size)]
        m1 = Monomial(size, tuple(p1), tuple(phases))
        m2 = Monomial(size, tuple(p2), tuple(phases2))
        assert (m1 @ m2).dense() == m1.dense() @ m2.dense()
        assert m1.conj_transpose().dense() == m1.dense().conj_transpose()
        assert m1.kron(m2).dense() == m1.dense().kron(m2.dense())
        assert m1.trace() == m1.dense().trace()
        mat = _rand_matrix(rng, size, size)
        assert m1.apply_left(mat) == m1.dense() @ mat
        assert m1.apply_right(mat) == mat @ m1.dense()
        k = rng.randrange(8)
        assert m1.times_i(k).dense() == m1.dense().scale(_i_power(k))
        assert m1.conj().dense() == Matrix(
            [[a.conjugate() for a in r] for r in m1.dense().rows]
        )
        for m in (m1 @ m2, m1.kron(m2), m1.conj(), m1.conj_transpose(), m1.times_i(k)):
            assert all(type(p) is int and 0 <= p < 4 for p in m.phase)


def _i_power(k):
    z = ONE
    for _ in range(k):
        z = z * I
    return z


def test_monomial_unitarity():
    m = Monomial(3, (1, 0, 2), (1, 2, 0))
    prod = m @ m.conj_transpose()
    assert prod.dense() == Matrix.identity(3)


def test_scaled_matrix_canonical_and_eq():
    a = Matrix([[gr(2)]])
    b = Matrix([[gr(1)]])
    assert ScaledMatrix(2, b) == ScaledMatrix(0, a)          # 2 * 1 == 2
    assert ScaledMatrix(4, b) == ScaledMatrix(0, Matrix([[gr(4)]]))
    assert ScaledMatrix(1, b) != ScaledMatrix(0, b)
    zero = Matrix.zero(1, 1)
    assert ScaledMatrix(3, zero) == ScaledMatrix(-5, zero)   # zero at any scale
    assert ScaledMatrix(5, b).half in (0, 1)


def test_scaled_matrix_hash_agrees_with_eq():
    zero = Matrix.zero(2, 2)
    zeros = {ScaledMatrix(0, zero), ScaledMatrix(1, zero), ScaledMatrix(-3, zero)}
    assert len(zeros) == 1
    b = Matrix([[gr(1)]])
    assert hash(ScaledMatrix(2, b)) == hash(ScaledMatrix(0, Matrix([[gr(2)]])))
    assert hash(ScaledMatrix(5, b)) == hash(ScaledMatrix(1, Matrix([[gr(4)]])))
    assert len({ScaledMatrix(2, b), ScaledMatrix(0, Matrix([[gr(2)]]))}) == 1


def test_scaled_matrix_eq_with_other_types():
    s = ScaledMatrix(0, Matrix([[gr(1)]]))
    assert s.__eq__(1) is NotImplemented
    assert (s == 1) is False
    assert s != "S"
    assert s != s.matrix


def test_scaled_hs_inner():
    b = Matrix([[gr(1)]])
    # (sqrt2 * 1, sqrt2 * 1) = 2
    assert scaled_hs_inner(ScaledMatrix(1, b), ScaledMatrix(1, b)) == gr(2)
    assert scaled_hs_inner(ScaledMatrix(2, b), ScaledMatrix(0, b)) == gr(2)
    with pytest.raises(ValueError):
        # odd residual power of sqrt2 with a nonzero value is not Gaussian-rational
        scaled_hs_inner(ScaledMatrix(1, b), ScaledMatrix(0, b))


def test_sparse_nullspace_small_systems():
    # x0 - x1 = 0, x1 - x2 = 0  ->  span{(1,1,1)}
    rows = [{0: gr(1), 1: gr(-1)}, {1: gr(1), 2: gr(-1)}]
    basis = sparse_nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] == v[2] != gr(0)
    # inconsistent-free full-rank system -> trivial nullspace
    rows = [{0: gr(1)}, {1: I}]
    assert sparse_nullspace(rows, 2) == []
    # empty system -> whole space
    assert len(sparse_nullspace([], 4)) == 4


def test_sparse_nullspace_random_verification():
    rng = random.Random(5)
    for _ in range(30):
        ncols = 6
        rows = []
        for _ in range(4):
            row = {}
            for _ in range(2):
                row[rng.randrange(ncols)] = gr(rng.choice((1, -1)),
                                               rng.choice((0, 1)))
            rows.append(row)
        basis = sparse_nullspace(rows, ncols)
        for v in basis:
            for row in rows:
                s = gr(0)
                for j, c in row.items():
                    s = s + c * v[j]
                assert s == gr(0)


def test_gram_schmidt():
    rng = random.Random(8)
    mats = [_rand_matrix(rng, 2, 3) for _ in range(3)]
    ortho = gram_schmidt(mats)
    assert len(ortho) == len(mats)
    for i, a in enumerate(ortho):
        for j, b in enumerate(ortho):
            if i != j:
                assert hs_inner(a, b) == gr(0)
        assert hs_inner(a, a) != gr(0)


# -- the gain-graph solver against the elimination oracle -------------------


def _oracle_rows(edges):
    """x[a] - i^k x[b] = 0 as sparse Gaussian-rational rows."""
    rows = []
    for a, b, k in edges:
        if a == b:
            coeff = ONE - UNITS[k % 4]
            if coeff:
                rows.append({a: coeff})
        else:
            rows.append({a: ONE, b: -UNITS[k % 4]})
    return rows


def _assert_matches_oracle(edges, ncols):
    basis = gain_graph_nullspace(edges, ncols)
    rows = _oracle_rows(edges)
    assert len(basis) == len(sparse_nullspace(rows, ncols))
    supports = []
    for vec in basis:
        assert len(vec) == ncols
        assert all(x == ZERO or x in UNITS for x in vec)
        assert satisfies(vec, rows)
        support = {c for c, x in enumerate(vec) if x}
        assert vec[min(support)] == ONE
        supports.append(support)
    # disjoint nonempty supports: the vectors are independent, so with the
    # oracle's nullity they span the whole nullspace
    assert sum(len(s) for s in supports) == len(set().union(*supports))
    assert [min(s) for s in supports] == sorted(min(s) for s in supports)
    return basis


def test_gain_graph_small_systems():
    # x0 = i x1, x1 = i x2: one component, (1, -i, -1)
    assert gain_graph_nullspace([(0, 1, 1), (1, 2, 1)], 3) == [[ONE, -I, gr(-1)]]
    # closing the triangle consistently keeps it, inconsistently kills it
    assert len(gain_graph_nullspace([(0, 1, 1), (1, 2, 1), (0, 2, 2)], 3)) == 1
    assert gain_graph_nullspace([(0, 1, 1), (1, 2, 1), (0, 2, 0)], 3) == []
    # self-loops: x = x is no constraint, x = -x and x = i x force zero
    assert len(gain_graph_nullspace([(1, 1, 0)], 2)) == 2
    assert gain_graph_nullspace([(0, 1, 3), (1, 1, 2)], 3) == [[ZERO, ZERO, ONE]]
    assert gain_graph_nullspace([(2, 2, 1)], 3) == [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]]
    # a forced zero, written as the self-loop x = -x, kills its whole component
    assert gain_graph_nullspace([(0, 2, 0), (2, 2, 2)], 3) == [[ZERO, ONE, ZERO]]
    assert len(gain_graph_nullspace([], 4)) == 4


@st.composite
def _unit_phase_systems(draw):
    ncols = draw(st.integers(1, 9))
    col = st.integers(0, ncols - 1)
    edges = draw(st.lists(st.tuples(col, col, st.integers(0, 3)), max_size=14))
    # forced zeros x[c] = 0, written as self-loops x[c] = -x[c]
    edges += [(c, c, 2) for c in draw(st.lists(col, max_size=2))]
    return edges, ncols


@settings(max_examples=300, deadline=None)
@given(_unit_phase_systems())
@example(([(0, 1, 1), (1, 2, 1), (2, 0, 1)], 3))  # inconsistent cycle
@example(([(0, 1, 1), (1, 2, 1), (0, 2, 0)], 3))  # inconsistent triangle
@example(([(0, 1, 1), (1, 2, 1), (2, 0, 2)], 4))  # consistent cycle
@example(([(0, 0, 2), (1, 2, 3)], 3))  # self-loop forcing zero
@example(([(0, 1, 3), (1, 1, 2), (3, 2, 1)], 4))  # self-loop killing a component
@example(([(0, 0, 0), (1, 1, 1)], 2))  # trivial and killing self-loops
@example(([(0, 2, 0), (1, 3, 2), (3, 3, 2)], 4))  # forced zero
def test_gain_graph_matches_elimination(system):
    edges, ncols = system
    _assert_matches_oracle(edges, ncols)
