"""Independent reference solvers used only by the tests.

`sparse_nullspace` is general exact Gaussian elimination over the Gaussian
rationals.  The library solves its unit-phase monomial systems by a gain
graph over Z/4 (`cliffharm.linalg.gain_graph_nullspace`); this elimination
knows nothing of that structure, which makes it the oracle for it.  The row
builders turn a Monomial's phase exponents into Gaussian rationals through
their own table UNITS, not through the library's conversions.

`enumerated_conjugacy_classes` conjugates every element by the whole group,
O(|G|^2); the library reads the partition off the sign-flip lemma instead.
`generic_spherical_character` sums the spherical character through group
multiplication and GaussianRational character values; the library sums it
in exact integers on masks.

`permutation_character_eta` counts the fixed points of the two-sided action
with `multiply`, so it is an oracle for the traces of `EtaRep`, whose images
are gathers from `elements.mult_table`.  `gram_schmidt` and
`triple_inverse` serve tests that need an orthogonal basis or inverses in
CL(n) x CL(n) x CL(m).
"""

from dataclasses import dataclass

from cliffharm.characters import character_value
from cliffharm.elements import (
    CliffordElement,
    ConjugacyClass,
    TripleElement,
    conjugacy_classes,
    conjugate,
    element_order_key,
    enumerate_group,
    inverse,
    multiply,
)
from cliffharm.exact import ONE, ZERO, gr
from cliffharm.linalg import hs_inner

UNITS = (ONE, gr(0, 1), gr(-1), gr(0, -1))  # UNITS[k] = i^k


def sparse_nullspace(rows, ncols):
    """Nullspace basis of a sparse system.

    rows: iterable of dict {col: GaussianRational} (zero-free).
    Returns a list of dense vectors (lists of GaussianRational), one per
    free column, in ascending free-column order.
    """
    pivots = {}  # pivot col -> reduced row dict (pivot coefficient 1)
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                coeff = row[lead]
                row = {c: v / coeff for c, v in row.items()}
                pivots[lead] = row
                break
            factor = row[lead]
            for c, v in pivots[lead].items():
                acc = row.get(c, ZERO) - factor * v
                if acc:
                    row[c] = acc
                elif c in row:
                    del row[c]
    # back-substitute to reduced echelon form
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for q in [c for c in row if c != p and c in pivots]:
            factor = row[q]
            for c, v in pivots[q].items():
                acc = row.get(c, ZERO) - factor * v
                if acc:
                    row[c] = acc
                elif c in row:
                    del row[c]
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for p, row in pivots.items():
            coeff = row.get(free)
            if coeff:
                vec[p] = -coeff
        basis.append(vec)
    return basis


def intertwiner_rows(src_rep, dst_rep, generators):
    """The rows of dst(g) T = T src(g) over the generators, T flattened
    row-major, built with Gaussian-rational arithmetic on the phases."""
    ds, dd = src_rep.dim, dst_rep.dim
    rows = []
    for g in generators:
        src = src_rep.image(g)
        dst = dst_rep.image(g)
        for r in range(dd):
            i = dst.perm[r]
            q = UNITS[dst.phase[r]]
            for c in range(ds):
                # q * T[r, c] = src_phase[c] * T[i, src_perm[c]]
                cell_a = r * ds + c
                cell_b = i * ds + src.perm[c]
                p = UNITS[src.phase[c]]
                if cell_a == cell_b:
                    coeff = q - p
                    if coeff:
                        rows.append({cell_a: coeff})
                else:
                    rows.append({cell_a: q, cell_b: -p})
    return rows


def fixed_vector_rows(monomials):
    """The rows of (pi - 1) v = 0 for each monomial pi."""
    rows = []
    for mono in monomials:
        for c in range(mono.size):
            # pi e_c = phase[c] e_perm[c]: row perm[c] of pi - 1
            r = mono.perm[c]
            row = {c: UNITS[mono.phase[c]]}
            row[r] = row.get(r, ZERO) - ONE
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


def satisfies(vec, rows):
    """Whether the dense vector vec solves every sparse row."""
    return all(
        sum((coeff * vec[c] for c, coeff in row.items()), ZERO) == ZERO for row in rows
    )


def enumerated_conjugacy_classes(n):
    """Class partition as the orbit of each element under conjugation by the
    whole group, in enumeration order of each class's first member."""
    elements = enumerate_group(n)
    seen = set()
    classes = []
    for x in elements:
        if x in seen:
            continue
        members = tuple(sorted({conjugate(x, c) for c in elements}, key=element_order_key))
        seen.update(members)
        classes.append(ConjugacyClass(members[0], members))
    return tuple(classes)


def generic_spherical_character(sigma, at):
    """(1/|H|) sum_h conj chi1(h g1) conj chi2(h g2) conj chi_t(h h1) over
    h in H = CL(m), by multiply and character_value."""
    n, m = sigma.rho1.degree, sigma.theta.degree
    total = gr(0)
    for h in enumerate_group(m):
        hn = CliffordElement(n, h.sign, h.mask)
        hh1 = multiply(hn, at.h)
        total = total + (
            character_value(sigma.rho1, multiply(hn, at.g1))
            * character_value(sigma.rho2, multiply(hn, at.g2))
            * character_value(sigma.theta, CliffordElement(m, hh1.sign, hh1.mask))
        ).conjugate()
    return total / (1 << (m + 1))


def triple_inverse(t):
    return TripleElement(inverse(t.g1), inverse(t.g2), inverse(t.h), t.subgroup_degree)


def gram_schmidt(mats):
    """Orthogonalize matrices w.r.t. the normalized Hilbert-Schmidt product.

    Returns an orthogonal (not normalized) basis; norms are rational and
    generally not perfect squares, so unit normalization would leave Q(i).
    """
    basis = []
    for m in mats:
        v = m
        for b in basis:
            coeff = hs_inner(v, b) / hs_inner(b, b)
            if coeff:
                v = v - b.scale(coeff)
        if not v.is_zero():
            basis.append(v)
    return basis


@dataclass
class EtaCharacter:
    """Character of the permutation action of CL(n) x CL(n) x CL(m) on G x G.

    Stored on product conjugacy classes (value at t = fixed points of the
    action of t).
    """

    n: int
    m: int
    reps: list  # TripleElement class representatives
    sizes: list
    values: list  # ints

    def multiplicity(self, sigma) -> int:
        order = (1 << (self.n + 1)) ** 2 * (1 << (self.m + 1))
        total = gr(0)
        for rep, size, value in zip(self.reps, self.sizes, self.values):
            c1 = character_value(sigma.rho1, rep.g1)
            c2 = character_value(sigma.rho2, rep.g2)
            ct = character_value(
                sigma.theta, CliffordElement(self.m, rep.h.sign, rep.h.mask)
            )
            total = total + size * value * (c1 * c2 * ct).conjugate()
        total = total / order
        if not total.is_integer() or total.re < 0:
            raise AssertionError(f"eta multiplicity not in Z>=0: {total}")
        return int(total.re)


def permutation_character_eta(n, m):
    g_elems = enumerate_group(n)
    reps, sizes, values = [], [], []
    classes_g = conjugacy_classes(n)
    classes_h = conjugacy_classes(m)
    for c1 in classes_g:
        g1 = c1.representative
        for c2 in classes_g:
            g2 = c2.representative
            g2i = inverse(g2)
            # fixed g3: g1 g3 g2^-1 = g3
            fixed_left = sum(
                1 for g3 in g_elems
                if multiply(multiply(g1, g3), g2i) == g3
            )
            for c3 in classes_h:
                h = CliffordElement(n, c3.representative.sign, c3.representative.mask)
                hi = inverse(h)
                fixed_right = (
                    sum(
                        1 for g4 in g_elems
                        if multiply(multiply(g2, g4), hi) == g4
                    )
                    if fixed_left
                    else 0
                )
                reps.append(TripleElement(g1, g2, h, m))
                sizes.append(c1.size * c2.size * c3.size)
                values.append(fixed_left * fixed_right)
    return EtaCharacter(n, m, reps, sizes, values)
