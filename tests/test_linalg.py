import random
from itertools import product
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cliffharm.exact import ZERO, gr
from cliffharm.linalg import (
    Matrix,
    ScaledMatrix,
    complex_matmul,
    compose,
    gain_graph_nullspace,
    hs_inner,
    kron,
    scaled_hs_inner,
    trace,
)
from oracles import (
    ONE,
    UNITS,
    as_gaussian,
    dense_monomial,
    gain_edges,
    satisfies,
    sparse_nullspace,
    union_find_nullspace,
)

I = gr(0, 1)


def _real(rows):
    return Matrix(rows, np.zeros_like(rows))


def _identity(n):
    return _real(np.eye(n, dtype=np.int64))


def _mul(x, y):
    """The dense product, written out on the (re, im) arrays."""
    return Matrix(x.re @ y.re - x.im @ y.im, x.re @ y.im + x.im @ y.re)


def _kron(x, y):
    return Matrix(
        np.kron(x.re, y.re) - np.kron(x.im, y.im), np.kron(x.re, y.im) + np.kron(x.im, y.re)
    )


def _conj_transpose(x):
    return Matrix(x.re.T, -x.im.T)


def test_matrix_refuses_non_integer_entries():
    # a cast to int64 would truncate 0.7 to 0 and wrap 2^63 to -2^63
    with pytest.raises(ValueError, match="integer values expected, got dtype float64"):
        Matrix([[0.7]], [[0]])
    with pytest.raises(ValueError, match="got dtype uint64"):
        Matrix([[0]], np.array([[1 << 63]], dtype=np.uint64))
    assert Matrix(np.array([[True]]), np.array([[3]], dtype=np.int8)) == Matrix([[1]], [[3]])


def test_hs_inner_normalization():
    ident = _identity(4)
    assert hs_inner(ident, ident) == gr(1)
    a = Matrix([[0, 0], [0, 0]], [[1, 0], [0, 0]])
    assert hs_inner(a, a) == gr(Fraction(1, 2))
    b = _real([[0, 1], [0, 0]])
    assert hs_inner(a, b) == gr(0)
    c = Matrix([[1, 2], [0, 0]], [[1, 0], [0, 3]])
    assert hs_inner(c, a) == gr(Fraction(1, 2), Fraction(-1, 2))  # (1 + i) conj(i) / 2
    for k in range(-3, 4):  # log2_scale multiplies by 2^k
        assert hs_inner(c, a, k) == gr(Fraction(1, 2), Fraction(-1, 2)) * gr(Fraction(2) ** k)


def _dense(perm, phase):
    return Matrix(*dense_monomial(perm, phase))


def _random_images(rng, shape, size):
    """(perm, phase) int64 tables of random monomial images of the given
    leading shape."""
    perm = rng.permuted(np.broadcast_to(np.arange(size), shape + (size,)), axis=-1)
    return perm, rng.integers(0, 4, shape + (size,))


@pytest.mark.parametrize("zero", list(product((False, True), repeat=4)))
def test_complex_matmul_forms_only_nonzero_products(zero):
    # every pattern of all-zero parts gives the dense product, in fresh
    # int64 arrays of the full shape, whichever products are skipped
    rng = np.random.default_rng(sum(bit << k for k, bit in enumerate(zero)))
    parts = [0 * p if z else p for p, z in zip(rng.integers(-3, 4, (4, 3, 3)), zero)]
    x, y = (parts[0][:2], parts[1][:2]), (parts[2][:, :2], parts[3][:, :2])  # 2x3 @ 3x2
    re, im = complex_matmul(x, y)
    want = _mul(Matrix(*x), Matrix(*y))
    assert re.dtype == im.dtype == np.int64 and re.shape == im.shape == (2, 2)
    assert np.array_equal(re, want.re) and np.array_equal(im, want.im)
    assert not any(np.shares_memory(out, p) for out in (re, im) for p in parts)


def test_monomial_matches_dense():
    # compose, kron and trace on (perm, phase) tables against the dense int64
    # products, with the leading axes broadcast
    rng = np.random.default_rng(2)
    for sa, sb in (((6,), (6,)), ((3, 1), (1, 4)), ((5,), ()), ((), (2,))):
        a, b = _random_images(rng, sa, 4), _random_images(rng, sb, 4)
        c = _random_images(rng, sb, 3)
        shape = np.broadcast_shapes(sa, sb)
        ab, ac = compose(a, b), kron(a, c)
        for p in (ab[1], ac[1]):
            assert p.dtype == np.int64 and ((0 <= p) & (p < 4)).all()
        a_, b_, c_ = ([np.broadcast_to(x, shape + x.shape[-1:]) for x in t] for t in (a, b, c))
        for idx in np.ndindex(shape):
            da, db, dc = (_dense(*(x[idx] for x in t)) for t in (a_, b_, c_))
            assert _dense(ab[0][idx], ab[1][idx]) == _mul(da, db)
            assert _dense(ac[0][idx], ac[1][idx]) == _kron(da, dc)
        tr_re, tr_im = trace(a)
        for idx in np.ndindex(sa):
            da = _dense(a[0][idx], a[1][idx])
            assert (tr_re[idx], tr_im[idx]) == (np.trace(da.re), np.trace(da.im))


def test_monomial_unitarity():
    # the adjoint of an image is (perm^-1, -phase[perm^-1]), and composing
    # the two either way gives the identity
    perm, phase = np.array([1, 0, 2]), np.array([1, 2, 0])
    inv = np.argsort(perm)
    adj = (inv, -phase[inv] & 3)
    assert _dense(*adj) == _conj_transpose(_dense(perm, phase))
    for prod in (compose((perm, phase), adj), compose(adj, (perm, phase))):
        assert _dense(*prod) == _identity(3)


def test_scaled_matrix_canonical_and_eq():
    a = _real([[2]])
    b = _real([[1]])
    assert ScaledMatrix(2, b) == ScaledMatrix(0, a)          # 2 * 1 == 2
    assert ScaledMatrix(4, b) == ScaledMatrix(0, _real([[4]]))
    assert ScaledMatrix(1, b) != ScaledMatrix(0, b)
    zero = _real([[0]])
    assert ScaledMatrix(3, zero) == ScaledMatrix(-5, zero)   # zero at any scale
    assert ScaledMatrix(3, zero).half == 0
    # the largest power of two dividing every entry moves into half
    s = ScaledMatrix(-3, Matrix([[4, -8]], [[0, 12]]))
    assert (s.half, s.matrix) == (1, Matrix([[1, -2]], [[0, 3]]))
    assert ScaledMatrix(5, b).half == 5  # an odd entry keeps the scale
    assert ScaledMatrix(0, Matrix([[2]], [[1]])).half == 0


def test_scaled_matrix_hash_agrees_with_eq():
    zero = _real([[0, 0], [0, 0]])
    zeros = {ScaledMatrix(0, zero), ScaledMatrix(1, zero), ScaledMatrix(-3, zero)}
    assert len(zeros) == 1
    b = _real([[1]])
    assert hash(ScaledMatrix(2, b)) == hash(ScaledMatrix(0, _real([[2]])))
    assert hash(ScaledMatrix(5, b)) == hash(ScaledMatrix(1, _real([[4]])))
    assert len({ScaledMatrix(2, b), ScaledMatrix(0, _real([[2]]))}) == 1


@st.composite
def _gaussian_matrices(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.integers(-8, 8)
    return Matrix(*([[draw(entry) for _ in range(cols)] for _ in range(rows)] for _ in "ri"))


@settings(max_examples=200, deadline=None)
@given(_gaussian_matrices(), st.integers(-6, 6), st.integers(0, 4))
@example(_real([[0]]), 0, 0)
@example(_real([[6, -2]]), 1, 3)
def test_scaled_matrix_fields_are_canonical(m, h, k):
    a, b = ScaledMatrix(h + 2 * k, m), ScaledMatrix(h, Matrix(m.re << k, m.im << k))
    assert a == b and hash(a) == hash(b)
    zero = Matrix(0 * m.re, 0 * m.im)
    assert ScaledMatrix(h, zero) == ScaledMatrix(h + k + 1, zero)
    if not m.is_zero():  # sqrt(2) is not in Q(i)
        assert ScaledMatrix(h + 1, m) != ScaledMatrix(h, m)


def test_scaled_matrix_eq_with_other_types():
    s = ScaledMatrix(0, _real([[1]]))
    assert s.__eq__(1) is NotImplemented
    assert (s == 1) is False
    assert s != "S"
    assert s != s.matrix


def test_scaled_hs_inner():
    b = _real([[1]])
    # (sqrt2 * 1, sqrt2 * 1) = 2
    assert scaled_hs_inner(ScaledMatrix(1, b), ScaledMatrix(1, b)) == gr(2)
    assert scaled_hs_inner(ScaledMatrix(2, b), ScaledMatrix(0, b)) == gr(2)
    with pytest.raises(ValueError):
        # odd residual power of sqrt2 with a nonzero value is not Gaussian-rational
        scaled_hs_inner(ScaledMatrix(1, b), ScaledMatrix(0, b))
    # a negative exponent divides; an odd one is fine on a vanishing product
    assert scaled_hs_inner(ScaledMatrix(-1, b), ScaledMatrix(-3, b)) == gr(Fraction(1, 4))
    assert scaled_hs_inner(ScaledMatrix(1, b), ScaledMatrix(0, _real([[0]]))) is ZERO


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


# -- the gain-graph kernel against the union-find and elimination oracles ---


def _system(ncols, *rows):
    """(maps, gains) arrays from one (permutation, gains) pair per generator;
    a permutation given as a dict lists only the cells it moves."""
    maps = np.array([[p.get(c, c) for c in range(ncols)] if isinstance(p, dict) else p
                     for p, _ in rows], dtype=np.int64).reshape(len(rows), ncols)
    gains = np.array([k for _, k in rows], dtype=np.int64).reshape(len(rows), ncols)
    return maps, gains


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


def _solve(maps, gains):
    """gain_graph_nullspace with each vector as a list of GaussianRational."""
    return [as_gaussian(re, im) for re, im in gain_graph_nullspace(maps, gains)]


def _assert_matches_oracles(maps, gains):
    ncols = maps.shape[1]
    vecs = gain_graph_nullspace(maps, gains)
    edges = gain_edges(maps, gains)
    expected = union_find_nullspace(edges, ncols)
    assert len(vecs) == len(expected)
    for (re, im), (want_re, want_im) in zip(vecs, expected):
        assert np.array_equal(re, want_re) and np.array_equal(im, want_im)
        assert not (re.flags.writeable or im.flags.writeable)
    rows = _oracle_rows(edges)
    assert len(vecs) == len(sparse_nullspace(rows, ncols))
    supports = []
    for vec in (as_gaussian(re, im) for re, im in vecs):
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


def test_gain_graph_small_systems():
    cycle = [1, 2, 0]  # x0 <- x1 <- x2 <- x0
    # x0 = i x1, x1 = i x2, x2 = i^2 x0: one component, (1, -i, -1)
    assert _solve(*_system(3, (cycle, [1, 1, 2]))) == [[ONE, -I, gr(-1)]]
    # the same cycle with gains summing to 1 or 3 mod 4 is inconsistent
    assert _solve(*_system(3, (cycle, [1, 1, 3]))) == []
    assert _solve(*_system(3, (cycle, [1, 1, 1]))) == []
    # a second generator closes the orbit consistently or kills it
    assert len(_solve(*_system(3, (cycle, [1, 1, 2]), ({0: 2, 2: 0}, [2, 0, 2])))) == 1
    assert _solve(*_system(3, (cycle, [1, 1, 2]), ({0: 2, 2: 0}, [0, 0, 0]))) == []
    # a fixed point with gain 0 is no constraint; with gain 2 or 1 it forces zero
    assert len(_solve(*_system(2, ([0, 1], [0, 0])))) == 2
    assert _solve(*_system(3, ({0: 1, 1: 0}, [3, 1, 2]))) == [[ONE, I, ZERO]]
    assert _solve(*_system(3, ({0: 1, 1: 0}, [3, 1, 0]), ([0, 1, 2], [0, 2, 0]))) == [
        [ZERO, ZERO, ONE]
    ]
    assert _solve(*_system(3, ([0, 1, 2], [0, 0, 1]))) == [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]]
    # a forced zero kills its whole orbit, through another generator
    assert _solve(*_system(3, ({0: 2, 2: 0}, [0, 0, 0]), ([0, 1, 2], [0, 0, 2]))) == [
        [ZERO, ONE, ZERO]
    ]
    # no generators, and one cell
    assert len(_solve(*_system(4))) == 4
    assert _solve(*_system(1)) == [[ONE]]
    assert _solve(*_system(1, ([0], [2]))) == []


@st.composite
def _permutation_systems(draw):
    ncols = draw(st.integers(1, 9))
    ngens = draw(st.integers(0, 4))
    perms = [draw(st.permutations(range(ncols))) for _ in range(ngens)]
    gains = [draw(st.lists(st.integers(0, 3), min_size=ncols, max_size=ncols))
             for _ in range(ngens)]
    return _system(ncols, *zip(perms, gains))


_SWAPS = {0: 1, 1: 0, 2: 3, 3: 2}
_CROSS = {0: 2, 2: 0, 1: 3, 3: 1}


@settings(max_examples=300, deadline=None)
@given(_permutation_systems())
@example(_system(3, ([1, 2, 0], [1, 1, 1])))  # inconsistent cycle
@example(_system(3, ([1, 2, 0], [1, 1, 2]), ({0: 2, 2: 0}, [0, 0, 0])))  # inconsistent triangle
@example(_system(4, ([1, 2, 0, 3], [1, 1, 2, 0])))  # consistent cycle
@example(_system(3, ({1: 2, 2: 1}, [2, 3, 1])))  # fixed point forcing zero
@example(_system(4, (_SWAPS, [3, 1, 3, 1]), ([0, 1, 2, 3], [0, 2, 0, 0])))  # killing a component
@example(_system(2, ([0, 1], [0, 1])))  # trivial and killing fixed points
@example(_system(4, (_CROSS, [0, 2, 0, 2]), ([0, 1, 2, 3], [0, 0, 0, 2])))  # forced zero
@example(_system(3))  # no generators
@example(_system(1, ([0], [0])))  # one cell
def test_gain_graph_matches_elimination(system):
    _assert_matches_oracles(*system)
