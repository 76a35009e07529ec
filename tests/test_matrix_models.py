import numpy as np
import pytest

from cliffharm import matrix_models, verify
from cliffharm.exact import gr
from cliffharm.elements import (
    CliffordElement,
    DegreeMismatchError,
    GuardError,
    element_index,
    mult_table,
)
from cliffharm.characters import character_value, chi, irreps, rho
from cliffharm.gelfand import diagonal_invariant_dim
from cliffharm.linalg import Matrix, compose, hs_inner, trace
from cliffharm.matrix_models import (
    FrobeniusContext,
    build_matrix_rep,
    intertwiner_space,
    intertwines,
    matrix_coefficient_checks,
)
from cliffharm.verify import frobenius_mismatch
from oracles import (
    ONE,
    as_gaussian,
    dense_monomial,
    enumerate_group,
    fixed_vector_rows,
    gain_edges,
    intertwiner_rows,
    permutation_character_eta,
    satisfies,
    sparse_nullspace,
    union_find_nullspace,
)


def _identity(d):
    return Matrix(np.eye(d, dtype=np.int64), np.zeros((d, d), dtype=np.int64))


def _adjoint(t):
    return Matrix(t.re.T, -t.im.T)


def _is_homomorphism(table, n):
    """table[x y] == table[x] table[y] for every pair, and the identity maps
    to the identity."""
    perm, phase = table
    tab, _ = mult_table(n)
    prod = compose((perm[:, None], phase[:, None]), (perm[None], phase[None]))
    return (
        np.array_equal(perm[0], np.arange(perm.shape[1]))
        and not phase[0].any()
        and np.array_equal(prod[0], perm[tab])
        and np.array_equal(prod[1], phase[tab])
    )


def test_reps_are_homomorphisms():
    for n in range(0, 5):
        for lab in irreps(n):
            assert _is_homomorphism(build_matrix_rep(lab), n)


def test_a_flipped_generator_phase_fails_the_homomorphism_check_and_c9(monkeypatch):
    # gamma_1 -> i gamma_1 in rho(2): gamma_1^2 becomes -1, which the
    # homomorphism check sees, and C9's coefficient identities fail at n = 2
    real_gammas, real_build = matrix_models._gammas, build_matrix_rep

    def flipped(n):
        perm, phase = real_gammas(n)
        phase[0] = (phase[0] + 1) & 3
        return perm, phase

    with monkeypatch.context() as mp:
        mp.setattr(matrix_models, "_gammas", flipped)
        mutated = build_matrix_rep.__wrapped__(rho(2))
    assert not _is_homomorphism(mutated, 2)
    assert verify.check_oracles(trace_n_max=4, coeff_n_max=2).ok

    def build(label):
        return mutated if label == rho(2) else real_build(label)

    monkeypatch.setattr(matrix_models, "build_matrix_rep", build)
    monkeypatch.setattr(verify, "build_matrix_rep", build)
    result = verify.check_oracles(trace_n_max=4, coeff_n_max=2)
    assert not result.ok and "coefficient identity failures at n=2" in result.detail


def test_reps_are_unitary():
    for n in (2, 3):
        _, inv = mult_table(n)
        for lab in irreps(n):
            table = build_matrix_rep(lab)
            for g in range(2 << n):
                u = Matrix(*dense_monomial(table[0][g], table[1][g]))
                u_inv = Matrix(*dense_monomial(table[0][inv[g]], table[1][inv[g]]))
                assert u_inv == _adjoint(u)
                prod = Matrix(u.re @ u_inv.re - u.im @ u_inv.im, u.re @ u_inv.im + u.im @ u_inv.re)
                assert prod == _identity(lab.dim)


def test_traces_equal_characters():
    for n in range(0, 3):
        for lab in irreps(n):
            re, im = trace(build_matrix_rep(lab))
            for g in enumerate_group(n):
                i = element_index(g)
                assert gr(int(re[i]), int(im[i])) == character_value(lab, g)


def test_schur():
    # End of an irrep is one-dimensional; Hom between distinct irreps is zero
    for n in (1, 2, 3):
        gens = matrix_models._generators(n)
        tables = [build_matrix_rep(lab) for lab in irreps(n)]
        for a, ta in enumerate(tables):
            for b, tb in enumerate(tables):
                space = intertwiner_space(*(tuple(x[gens] for x in t) for t in (ta, tb)))
                assert space.dimension == (1 if a == b else 0)
                assert all(intertwines(t, ta, tb) for t in space.basis)


def test_eta_traces_are_fixed_point_counts():
    # the oracle counts fixed points with multiply; the images gather from
    # mult_table
    for n, m in ((1, 1), (1, 0), (2, 2), (2, 1)):
        ctx = FrobeniusContext(n, m, chi(n), chi(n), chi(m))
        eta_char = permutation_character_eta(n, m)
        for t, value in zip(eta_char.reps, eta_char.values):
            h = CliffordElement(m, t.h.sign, t.h.mask)
            images = ctx._eta(element_index(t.g1), element_index(t.g2), element_index(h))
            assert trace(images) == (value, 0)


def test_invariant_tensor_count():
    n, m = 2, 1
    for r1 in irreps(n):
        for r2 in irreps(n):
            for th in irreps(m):
                ctx = FrobeniusContext(n, m, r1, r2, th)
                assert len(ctx.invariant_tensors()) == diagonal_invariant_dim(r1, r2, th)


def test_operator_formulas_agree():
    # the closed form, the generic coset formula, and tilde are consistent
    for n, m, r1, r2, th in (
        (2, 1, rho(2), rho(2), chi(1)),
        (2, 1, chi(2, (1,)), rho(2), rho(1, "+")),
        (2, 2, rho(2), rho(2), chi(2, (1, 2))),
    ):
        ctx = FrobeniusContext(n, m, r1, r2, th)
        for b in ctx.invariant_tensors():
            t_closed = ctx.operator_from_invariant(b)
            t_cosets = ctx.operator_from_invariant_via_cosets(b)
            assert t_closed == t_cosets
            assert ctx.tilde(t_closed) == ctx.tilde_from_invariant(b)


def test_scalar_relation_on_orthogonal_intertwiners():
    # for T_i in an orthogonal basis of Hom(sigma, eta), sigma irreducible:
    # T_j^* T_i = <T_i, T_j> I  (normalized Hilbert-Schmidt product).  The
    # gain-graph basis is orthogonal: its vectors have disjoint supports.
    n, m = 2, 1
    ctx = FrobeniusContext(n, m, rho(2), rho(2), chi(1))
    basis = ctx.hom_triple_eta().basis
    assert len(basis) == 2
    ident = _identity(ctx.d1 * ctx.d2 * ctx.dt)
    for i, ti in enumerate(basis):
        for j, tj in enumerate(basis):
            prod = Matrix(
                tj.re.T @ ti.re + tj.im.T @ ti.im, tj.re.T @ ti.im - tj.im.T @ ti.re
            )
            z = hs_inner(ti, tj)
            assert z.re.denominator == z.im.denominator == 1
            assert prod == Matrix(int(z.re) * ident.re, int(z.im) * ident.re)
            if i != j:
                assert z == 0 and prod.is_zero()


def test_adjoint_scaling():
    # <T1^*, T2^*> = (dim src / dim dst) <T2, T1> for the normalized product
    n, m = 2, 1
    ctx = FrobeniusContext(n, m, rho(2), rho(2), chi(1))
    basis = ctx.hom_triple_eta().basis
    d_src = ctx.d1 * ctx.d2 * ctx.dt
    d_dst = ctx.group_order**2
    factor = gr(d_src) / gr(d_dst)
    for t1 in basis:
        for t2 in basis:
            lhs = hs_inner(_adjoint(t1), _adjoint(t2))
            assert lhs == factor * hs_inner(t2, t1)


def test_intertwines_predicate():
    table = build_matrix_rep(rho(2))
    assert intertwines(_identity(2), table, table)
    bad = Matrix([[1, 0], [0, 0]], [[0, 0], [0, 0]])
    assert not intertwines(bad, table, table)
    # one element is enough to fail: the projector commutes with -1 and
    # gamma_1 gamma_2 = diag(i, -i) but not with gamma_1
    rows = [1 << 2, 3, 1]
    assert intertwines(bad, *(tuple(x[rows[:2]] for x in table),) * 2)
    assert not intertwines(bad, *(tuple(x[rows] for x in table),) * 2)


def test_matrix_coefficient_identities():
    for n in (0, 1):
        report = matrix_coefficient_checks(n)
        assert report.ok
        assert report.orthogonality_checked > 0
        assert report.convolution_checked > 0


def test_hat_and_coefficient_checks_see_a_phase_slip(monkeypatch):
    # one extra factor of i in the rotation hat applies breaks the round trip
    # on a triple of multiplicity 2
    rotate = matrix_models.times_i
    with monkeypatch.context() as mp:
        mp.setattr(matrix_models, "times_i", lambda re, im, k: rotate(re, im, k + 1))
        assert diagonal_invariant_dim(rho(2), rho(2), chi(1)) == 2
        assert frobenius_mismatch(2, 1, rho(2), rho(2), chi(1)) == "hat(tilde) != id"
    # one coefficient of chi:{1} with its phase flipped at one element
    images = matrix_models.build_matrix_rep

    def flipped(label):
        perm, phase = images(label)
        if label == chi(1, (1,)):
            phase = phase.copy()
            phase[1, 0] ^= 2
        return perm, phase

    with monkeypatch.context() as mp:
        mp.setattr(matrix_models, "build_matrix_rep", flipped)
        assert matrix_coefficient_checks(1).failures
    assert matrix_coefficient_checks(1).ok


def _assert_solver_matches_elimination(vectors, rows, ncols):
    assert len(vectors) == len(sparse_nullspace(rows, ncols))
    for vec in vectors:
        assert satisfies(vec, rows)


def test_intertwiner_solves_match_elimination():
    # Schur systems at n <= 3
    for n in (1, 2, 3):
        gens = matrix_models._generators(n)
        tables = [tuple(x[gens] for x in build_matrix_rep(lab)) for lab in irreps(n)]
        for ta in tables:
            for tb in tables:
                rows = intertwiner_rows(ta, tb)
                space = intertwiner_space(ta, tb)
                vecs = [as_gaussian(t.re, t.im) for t in space.basis]
                _assert_solver_matches_elimination(vecs, rows, ta[0].shape[1] * tb[0].shape[1])
    # every C7 system at (1,1) and (1,0)
    for n, m in ((1, 1), (1, 0)):
        for r1 in irreps(n):
            for r2 in irreps(n):
                for th in irreps(m):
                    ctx = FrobeniusContext(n, m, r1, r2, th)
                    for (src, dst), space in (
                        (ctx._triple_eta_generators(), ctx.hom_triple_eta()),
                        (ctx._res_theta_prime_generators(), ctx.hom_res_theta_prime()),
                    ):
                        rows = intertwiner_rows(src, dst)
                        vecs = [as_gaussian(t.re, t.im) for t in space.basis]
                        ncols = src[0].shape[1] * dst[0].shape[1]
                        _assert_solver_matches_elimination(vecs, rows, ncols)


def test_invariant_tensors_match_elimination():
    # (2,1) and (2,2) reach the phases +/-i of rho(2)
    for n, m in ((1, 1), (1, 0), (2, 1), (2, 2)):
        every = np.arange(2 << m)
        for r1 in irreps(n):
            for r2 in irreps(n):
                for th in irreps(m):
                    ctx = FrobeniusContext(n, m, r1, r2, th)
                    diagonal = ctx._triple(ctx._embed, ctx._embed, every)
                    rows = fixed_vector_rows(diagonal)
                    vecs = [as_gaussian(*b) for b in ctx.invariant_tensors()]
                    _assert_solver_matches_elimination(vecs, rows, diagonal[0].shape[1])


def test_invariant_tensors_solve_for_fixed_not_conjugate_vectors():
    # every image swaps e0 -> i e1, e1 -> -i e0; its fixed vectors are the
    # multiples of (1, i), while its conjugate's are those of (1, -i)
    def swap(i1, i2, ih):
        shape = np.shape(ih) + (2,)
        return np.broadcast_to([1, 0], shape), np.broadcast_to([1, 3], shape)

    ctx = FrobeniusContext(1, 0, irreps(1)[0], irreps(1)[0], irreps(0)[0])
    ctx._triple = swap
    assert [as_gaussian(*b) for b in ctx.invariant_tensors()] == [[ONE, gr(0, 1)]]


def _exponent_phases(table):
    perm, phase = table
    d = perm.shape[-1]
    return (
        perm.dtype == phase.dtype == np.int64
        and ((0 <= phase) & (phase < 4)).all()
        and (np.sort(perm, axis=-1) == np.arange(d)).all()  # each row a permutation
    )


def test_frobenius_context_validates_label_degrees():
    # the labels must form a triple of degrees (n, n, m), m = n or n - 1,
    # and match the (n, m) given
    for n, m, labels in (
        (1, 1, (rho(2), rho(2), chi(1))),  # labels of (2, 1)
        (3, 1, (chi(3), chi(3), chi(1))),  # m = n - 2
        (2, 1, (chi(1), chi(1), chi(1))),  # labels of (1, 1)
    ):
        with pytest.raises(DegreeMismatchError):
            FrobeniusContext(n, m, *labels)
    assert FrobeniusContext(2, 1, rho(2), rho(2), chi(1)).hom_triple_eta().basis


def test_images_carry_exponent_phases():
    for n in range(0, 5):
        for lab in irreps(n):
            table = build_matrix_rep(lab)
            assert _exponent_phases(table)
            assert not (table[0].flags.writeable or table[1].flags.writeable)
    for n in (1, 2):
        for m in (n, n - 1):
            ctx = FrobeniusContext(n, m, rho(n, "+" if n % 2 else ""), chi(n), chi(m))
            for table in ctx._triple_eta_generators() + ctx._res_theta_prime_generators():
                assert _exponent_phases(table)


def test_non_unit_phase_is_rejected():
    # phases that are not exponents of i: a float array, and an object array
    # holding the Gaussian rational 2
    gens = matrix_models._generators(1)
    table = tuple(x[gens] for x in build_matrix_rep(chi(1)))
    for bad_phase in (np.full((2, 1), 0.5), np.full((2, 1), gr(2), dtype=object)):
        scaled = (table[0], bad_phase)
        with pytest.raises(TypeError):
            intertwiner_space(scaled, table)
        with pytest.raises(TypeError):
            intertwiner_space(table, scaled)
        with pytest.raises(TypeError):
            intertwines(_identity(1), scaled, table)


def test_isometry_at_odd_degree_spin_pairs():
    # rho+ x rho- x theta at (n,m) = (3,2): the first odd degree with
    # two-dimensional spin irreps; Res(rho+ (x) rho-) is the sum of the chi's
    dims = []
    for th in irreps(2):
        assert frobenius_mismatch(3, 2, rho(3, "+"), rho(3, "-"), th) is None
        dims.append(diagonal_invariant_dim(rho(3, "+"), rho(3, "-"), th))
    assert dims == [1, 1, 1, 1, 0]


def test_every_c7_system_to_n2_matches_the_union_find(monkeypatch):
    # the gain closure gives the union-find's basis, vector for vector, on
    # the three systems C7 solves for every triple at n <= 2
    real = matrix_models.gain_graph_nullspace
    seen = []

    def checked(maps, gains):
        vecs = real(maps, gains)
        want = union_find_nullspace(gain_edges(maps, gains), maps.shape[1])
        assert len(vecs) == len(want)
        for got, expected in zip(vecs, want):
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        seen.append(maps.shape)
        return vecs

    monkeypatch.setattr(matrix_models, "gain_graph_nullspace", checked)
    triples = 0
    for n, m in verify.DESK_FROBENIUS_PAIRS:
        for r1 in irreps(n):
            for r2 in irreps(n):
                for th in irreps(m):
                    ctx = FrobeniusContext(n, m, r1, r2, th)
                    ctx.hom_triple_eta()
                    ctx.hom_res_theta_prime()
                    ctx.invariant_tensors()
                    triples += 1
    assert len(seen) == 3 * triples


def test_eta_models_are_guarded_past_degree_5():
    assert matrix_models.MAX_ETA_DEGREE == 5
    with pytest.raises(GuardError, match="n <= 5"):
        FrobeniusContext(6, 6, chi(6), chi(6), chi(6))
    with pytest.raises(GuardError, match="n <= 5"):
        FrobeniusContext(6, 5, chi(6), chi(6), chi(5))
    with pytest.raises(GuardError, match="n <= 5"):
        matrix_coefficient_checks(6)
