import random

import numpy as np
import pytest

from cliffharm import matrix_models
from cliffharm.exact import gr
from cliffharm.elements import (
    element_index,
    enumerate_group,
    identity,
    inverse,
    multiply,
)
from cliffharm.characters import character_value, chi, irreps, rho
from cliffharm.gelfand import diagonal_invariant_dim
from cliffharm.elements import TripleElement, embed
from cliffharm.linalg import Matrix, Monomial, hs_inner
from cliffharm.matrix_models import (
    EtaRep,
    FrobeniusContext,
    build_matrix_rep,
    clifford_generators,
    intertwiner_space,
    intertwines,
    matrix_coefficient_checks,
    triple_generators,
)
from cliffharm.verify import frobenius_mismatch
from oracles import (
    ONE,
    as_gaussian,
    fixed_vector_rows,
    intertwiner_rows,
    permutation_character_eta,
    satisfies,
    sparse_nullspace,
)


def _identity(d):
    return Matrix(np.eye(d, dtype=np.int64), np.zeros((d, d), dtype=np.int64))


def _adjoint(t):
    return Matrix(t.re.T, -t.im.T)


def test_reps_are_homomorphisms():
    for n in range(0, 4):
        elems = enumerate_group(n)
        rng = random.Random(n)
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(30)]
        for lab in irreps(n):
            rep = build_matrix_rep(lab)
            assert rep.image(identity(n)).dense() == _identity(rep.dim)
            for x, y in pairs:
                assert rep.image(multiply(x, y)) == rep.image(x) @ rep.image(y)


def test_reps_are_unitary():
    for n in (2, 3):
        for lab in irreps(n):
            rep = build_matrix_rep(lab)
            for g in enumerate_group(n):
                mono = rep.image(g)
                assert (mono @ mono.conj_transpose()).dense() == _identity(rep.dim)
                assert rep.image(inverse(g)) == mono.conj_transpose()


def test_traces_equal_characters():
    for n in range(0, 3):
        for lab in irreps(n):
            rep = build_matrix_rep(lab)
            for g in enumerate_group(n):
                assert rep.image(g).trace() == character_value(lab, g)


def test_schur():
    # End of an irrep is one-dimensional; Hom between distinct irreps is zero
    for n in (1, 2, 3):
        gens = clifford_generators(n)
        elems = enumerate_group(n)
        reps = [build_matrix_rep(lab) for lab in irreps(n)]
        for a, ra in enumerate(reps):
            for b, rb in enumerate(reps):
                space = intertwiner_space(ra, rb, gens, verify_on=elems)
                assert space.dimension == (1 if a == b else 0)


def test_eta_traces_are_fixed_point_counts():
    # the oracle counts fixed points with multiply; the images gather from
    # mult_table
    for n, m in ((1, 1), (1, 0), (2, 2), (2, 1)):
        eta_rep = EtaRep(n, m)
        eta_char = permutation_character_eta(n, m)
        for rep_elem, value in zip(eta_char.reps, eta_char.values):
            assert eta_rep.image(rep_elem).trace() == gr(value)


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
    ident = _identity(ctx.triple_rep.dim)
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
    d_src = ctx.triple_rep.dim
    d_dst = ctx.eta.dim
    factor = gr(d_src) / gr(d_dst)
    for t1 in basis:
        for t2 in basis:
            lhs = hs_inner(_adjoint(t1), _adjoint(t2))
            assert lhs == factor * hs_inner(t2, t1)


def test_intertwines_predicate():
    n = 2
    rep = build_matrix_rep(rho(2))
    ident = _identity(rep.dim)
    for g in enumerate_group(n):
        assert intertwines(ident, rep, rep, g)
    bad = Matrix([[1, 0], [0, 0]], [[0, 0], [0, 0]])
    assert not all(intertwines(bad, rep, rep, g) for g in enumerate_group(n))


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
    images = matrix_models._image_arrays

    def flipped(label):
        perm, phase = images(label)
        if label == chi(1, (1,)):
            phase = phase.copy()
            phase[1, 0] ^= 2
        return perm, phase

    with monkeypatch.context() as mp:
        mp.setattr(matrix_models, "_image_arrays", flipped)
        assert matrix_coefficient_checks(1).failures
    assert matrix_coefficient_checks(1).ok


def _assert_solver_matches_elimination(vectors, rows, ncols):
    assert len(vectors) == len(sparse_nullspace(rows, ncols))
    for vec in vectors:
        assert satisfies(vec, rows)


def test_intertwiner_solves_match_elimination():
    # Schur systems at n <= 3
    for n in (1, 2, 3):
        gens = clifford_generators(n)
        reps = [build_matrix_rep(lab) for lab in irreps(n)]
        for ra in reps:
            for rb in reps:
                rows = intertwiner_rows(ra, rb, gens)
                space = intertwiner_space(ra, rb, gens)
                vecs = [as_gaussian(t.re, t.im) for t in space.basis]
                _assert_solver_matches_elimination(vecs, rows, ra.dim * rb.dim)
    # every C7 system at (1,1) and (1,0)
    for n, m in ((1, 1), (1, 0)):
        for r1 in irreps(n):
            for r2 in irreps(n):
                for th in irreps(m):
                    ctx = FrobeniusContext(n, m, r1, r2, th)
                    for src, dst, gens, space in (
                        (ctx.triple_rep, ctx.eta, triple_generators(n, m),
                         ctx.hom_triple_eta()),
                        (ctx.res_rep, ctx.theta_prime, clifford_generators(m),
                         ctx.hom_res_theta_prime()),
                    ):
                        rows = intertwiner_rows(src, dst, gens)
                        vecs = [as_gaussian(t.re, t.im) for t in space.basis]
                        _assert_solver_matches_elimination(vecs, rows, src.dim * dst.dim)


def test_invariant_tensors_match_elimination():
    # (2,1) and (2,2) reach the phases +/-i of rho(2)
    for n, m in ((1, 1), (1, 0), (2, 1), (2, 2)):
        for r1 in irreps(n):
            for r2 in irreps(n):
                for th in irreps(m):
                    ctx = FrobeniusContext(n, m, r1, r2, th)
                    diagonal = []
                    for h in enumerate_group(m):
                        hh = embed(h, n)
                        diagonal.append(ctx.triple_rep.image(TripleElement(hh, hh, hh, m)))
                    rows = fixed_vector_rows(diagonal)
                    vecs = [as_gaussian(*b) for b in ctx.invariant_tensors()]
                    _assert_solver_matches_elimination(vecs, rows, ctx.triple_rep.dim)


def test_invariant_tensors_solve_for_fixed_not_conjugate_vectors():
    # every image swaps e0 -> i e1, e1 -> -i e0; its fixed vectors are the
    # multiples of (1, i), while its conjugate's are those of (1, -i)
    class Swap:
        dim = 2

        def image(self, t):
            return Monomial(2, (1, 0), (1, 3))

    ctx = FrobeniusContext(1, 0, irreps(1)[0], irreps(1)[0], irreps(0)[0])
    ctx.triple_rep = Swap()
    assert [as_gaussian(*b) for b in ctx.invariant_tensors()] == [[ONE, gr(0, 1)]]


def _exponent_phases(mono):
    return all(type(p) is int and 0 <= p < 4 for p in mono.phase)


def test_images_carry_exponent_phases():
    for n in range(0, 5):
        for lab in irreps(n):
            rep = build_matrix_rep(lab)
            assert all(_exponent_phases(rep.image(g)) for g in clifford_generators(n))
    for n in (1, 2):
        for m in (n, n - 1):
            eta = EtaRep(n, m)
            assert all(_exponent_phases(eta.image(t)) for t in triple_generators(n, m))


def test_non_unit_phase_is_rejected():
    # a phase that is not an exponent of i, here the Gaussian rational 2
    class Scaled:
        dim = 1

        def image(self, g):
            return Monomial(1, (0,), (gr(2),))

    rep = build_matrix_rep(chi(1))
    with pytest.raises(TypeError):
        intertwiner_space(Scaled(), rep, clifford_generators(1))
    with pytest.raises(TypeError):
        intertwiner_space(rep, Scaled(), clifford_generators(1))


def test_isometry_at_odd_degree_spin_pairs():
    # rho+ x rho- x theta at (n,m) = (3,2): the first odd degree with
    # two-dimensional spin irreps; Res(rho+ (x) rho-) is the sum of the chi's
    dims = []
    for th in irreps(2):
        assert frobenius_mismatch(3, 2, rho(3, "+"), rho(3, "-"), th) is None
        dims.append(diagonal_invariant_dim(rho(3, "+"), rho(3, "-"), th))
    assert dims == [1, 1, 1, 1, 0]
