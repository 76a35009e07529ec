"""Independent reference solvers used only by the tests.

`sparse_nullspace` is general exact Gaussian elimination over the Gaussian
rationals.  The library solves its unit-phase monomial systems by a gain
graph over Z/4 (`cliffharm.linalg.gain_graph_nullspace`), closing integer
keys under every generator's permutation of the cells at once; this
elimination knows nothing of that structure, which makes it the oracle for
its nullity.  `union_find_nullspace` solves the same system one edge
(a, b, k) at a time, as a union-find with path-compressed potentials mod 4;
it shares no step with the closure and is the oracle for the basis itself,
vector for vector and in order.  `gain_edges` lists a permutation system's
constraints as those edges.  The row
builders read monomial images in the library's (perm, phase) format, one
image per row of the tables, and turn the phase exponents into Gaussian
rationals through their own table UNITS, not through the library's
rotation; `dense_monomial` writes one image out as a dense int64 matrix the
same way, and `as_gaussian` reads the library's int64 (re, im) vectors and
matrices as Gaussian-rational lists to compare with them.

`xi` is the defining loop over pairs of indices, and `xi_multiply` and
`xi_inverse` are the product rule and the closed-form inverse written
directly from it: they are the oracles for `elements.index_product`, the
library's one group law, which reads xi mod 2 off a shift-XOR fold and a
popcount.  Every oracle below that multiplies group elements uses them.

`enumerated_conjugacy_classes` conjugates every element by the whole group,
O(|G|^2); the library reads the partition off the sign-flip lemma instead.
`classes` lists the library's partition, one (sign, mask, size) per entry
of `elements.class_keys`, for the oracles that sum class by class.
`conjugation_pair_orbits` conjugates every pair by every element of CL(m)
through `xi_multiply`; the library labels the same orbits, the double cosets
of the diagonal CL(m), by closing the pair keys under conjugation by the m
generators of CL(m) through `index_product`, and predicts them from the
flip vectors of the sign-flip lemma.
`generic_spherical_character` sums the spherical character through group
multiplication and GaussianRational character values; the library sums it
in exact integers on masks.

`summed_slabs` sums the full spherical grid one slab of the last slot at a
time by `np.einsum` over every row h of three Gaussian-integer summand
tables; the library counts sign bits on +-1 tables and otherwise multiplies
matrices over the rows where the last slot's summand is nonzero.

`character_table` is the dense int64 table of every irrep at every class.
`dense_multiplicity_cube` fills the whole |Irr|^3 multiplicity cube of the
Gelfand scan from it through int64 matmuls, `class_sum_invariant_dim` sums
one triple over all the classes, `inner_product` pairs two class functions
class by class in GaussianRational arithmetic, and `orthogonality_decompose` runs the orthogonality relations
against the whole dense table.  The library reads the same numbers off the
Sylvester-Hadamard structure of the linear characters and the central
support of the spin characters instead.

`pairwise_convolution_commutes` builds every double coset of the diagonal
CL(m) in CL(n) x CL(n) x CL(m) as a member set and compares 1_a * 1_b with
1_b * 1_a for every pair of cosets as full count vectors over the group;
the library reads the same verdict off the structure constants at one
representative per double coset.

`permutation_character_eta` counts the fixed points of the two-sided action
with `xi_multiply`, so it is an oracle for the traces of the eta model of
`matrix_models.FrobeniusContext`, whose images are gathers from
`elements.mult_table`.  `triple_product` multiplies in CL(n) x CL(n) x CL(m)
componentwise, for tests that move a point of the triple group.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from cliffharm.characters import (
    Decomposition,
    NotACharacterError,
    char_re_im,
    character_value,
    format_label,
    irreps,
)
from cliffharm.elements import (
    CliffordElement,
    DegreeMismatchError,
    TripleElement,
    class_keys,
    element_index,
    enumerate_group,
    is_central,
    mask_of,
    mult_table,
)
from cliffharm.exact import ZERO, gr

ONE = gr(1)
UNITS = (ONE, gr(0, 1), gr(-1), gr(0, -1))  # UNITS[k] = i^k
_UNIT_PARTS = np.array([(int(u.re), int(u.im)) for u in UNITS], dtype=np.int64)


def xi(a, b) -> int:
    """Number of pairs (x, y) in A x B with x > y."""
    am = mask_of(a)
    bm = mask_of(b)
    count = 0
    while am:
        low = am & -am
        count += (bm & (low - 1)).bit_count()
        am ^= low
    return count


def xi_multiply(x, y):
    """e1 gamma_A . e2 gamma_B = e1 e2 (-1)^xi(A, B) gamma_(A xor B)."""
    if x.degree != y.degree:
        raise DegreeMismatchError(f"degrees differ: {x.degree} != {y.degree}")
    sign = x.sign * y.sign * (-1) ** xi(x.mask, y.mask)
    return CliffordElement(x.degree, sign, x.mask ^ y.mask)


def xi_inverse(x):
    """(e gamma_A)^-1 = e (-1)^(k(k-1)/2) gamma_A for k = |A|: reversing the
    k generators of gamma_A takes k(k-1)/2 transpositions."""
    k = x.mask.bit_count()
    return CliffordElement(x.degree, x.sign * (-1) ** (k * (k - 1) // 2), x.mask)


def triple_product(s, t):
    """s * t in CL(n) x CL(n) x CL(m), componentwise."""
    return TripleElement(
        xi_multiply(s.g1, t.g1),
        xi_multiply(s.g2, t.g2),
        xi_multiply(s.h, t.h),
        s.subgroup_degree,
    )


def classes(n):
    """(sign, mask, size) of each class of CL(n), in class_keys order."""
    return [
        (sign, mask, 1 if is_central(mask, n) else 2)
        for sign, mask in zip(*(a.tolist() for a in class_keys(n)))
    ]


def as_gaussian(re, im):
    """The entries of int64 arrays re and im, row-major, as a list of
    GaussianRational."""
    return [gr(a, b) for a, b in zip(np.ravel(re).tolist(), np.ravel(im).tolist())]


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


def union_find_nullspace(edges, ncols):
    """Nullspace of the constraints x[a] = i^k x[b], given as edges (a, b, k).

    The columns joined by edges form components; within one component every
    x[c] is i^p[c] times the component's root value, with potentials p kept
    by a union-find.  A component is inconsistent, and forced to zero, when
    a cycle's gains disagree; a self-loop (c, c, k) with k != 0 is such a
    cycle, so (c, c, 2) is how a caller forces x[c] = 0.  Returns one vector
    per consistent component, in order of its smallest column, as a pair
    (re, im) of read-only int64 arrays with entries in {0, +/-1, +/-i} and
    1 at that column.

    The solve is exact with no rational arithmetic: potentials are integers
    reduced mod 4, so nothing overflows and nothing is divided.
    """
    parent = list(range(ncols))
    pot = [0] * ncols  # x[c] = i^pot[c] x[parent[c]]
    dead = [False] * ncols  # meaningful at roots only

    def find(c):
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        acc = 0
        for v in reversed(path):  # nearest the root first
            acc = (acc + pot[v]) & 3
            pot[v] = acc
            parent[v] = c
        return c

    for a, b, k in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            if (pot[a] - pot[b] - k) & 3:
                dead[ra] = True
        else:
            # x[ra] = i^-pot[a] x[a] = i^(k + pot[b] - pot[a]) x[rb]
            parent[ra] = rb
            pot[ra] = (k + pot[b] - pot[a]) & 3
            dead[rb] = dead[rb] or dead[ra]

    heads = {}  # root -> (row, potential of the component's smallest column)
    cells = []  # (row, column, exponent of i)
    for c in range(ncols):
        r = find(c)
        if not dead[r]:
            row, p0 = heads.setdefault(r, (len(heads), pot[c]))
            cells.append((row, c, pot[c] - p0))
    re = np.zeros((len(heads), ncols), dtype=np.int64)
    im = np.zeros_like(re)
    if cells:
        rows, cols, exps = np.array(cells, dtype=np.int64).T
        re[rows, cols], im[rows, cols] = _UNIT_PARTS[exps & 3].T
    re.setflags(write=False)
    im.setflags(write=False)
    return list(zip(re, im))


def gain_edges(maps, gains):
    """The constraints x[a] = i^gains[g, a] x[maps[g, a]] of a permutation
    system, as the edge list (a, b, k) that union_find_nullspace reads."""
    return [
        (a, b, k)
        for row, gain in zip(np.asarray(maps).tolist(), np.asarray(gains).tolist())
        for a, (b, k) in enumerate(zip(row, gain))
    ]


def dense_monomial(perm, phase):
    """(re, im): the dense int64 matrix of one monomial image, whose column
    j holds UNITS[phase[j]] at row perm[j]."""
    size = len(perm)
    re = np.zeros((size, size), dtype=np.int64)
    im = np.zeros_like(re)
    for j, (r, k) in enumerate(zip(np.ravel(perm).tolist(), np.ravel(phase).tolist())):
        re[r, j], im[r, j] = int(UNITS[k].re), int(UNITS[k].im)
    return re, im


def intertwiner_rows(src, dst):
    """The rows of dst(g) T = T src(g) for each row g of the image tables
    src and dst, (perm, phase) pairs of int64 arrays, T flattened row-major,
    built with Gaussian-rational arithmetic on the phases."""
    (src_perm, src_phase), (dst_perm, dst_phase) = (
        [a.tolist() for a in table] for table in (src, dst)
    )
    ds, dd = len(src_perm[0]), len(dst_perm[0])
    rows = []
    for sp, sk, dp, dk in zip(src_perm, src_phase, dst_perm, dst_phase):
        for r in range(dd):
            i = dp[r]
            q = UNITS[dk[r]]
            for c in range(ds):
                # q * T[r, c] = src_phase[c] * T[i, src_perm[c]]
                cell_a = r * ds + c
                cell_b = i * ds + sp[c]
                p = UNITS[sk[c]]
                if cell_a == cell_b:
                    coeff = q - p
                    if coeff:
                        rows.append({cell_a: coeff})
                else:
                    rows.append({cell_a: q, cell_b: -p})
    return rows


def fixed_vector_rows(images):
    """The rows of (pi - 1) v = 0 for each row pi of the image table images,
    a (perm, phase) pair of int64 arrays."""
    rows = []
    for perm, phase in zip(*(a.tolist() for a in images)):
        for c in range(len(perm)):
            # pi e_c = phase[c] e_perm[c]: row perm[c] of pi - 1
            r = perm[c]
            row = {c: UNITS[phase[c]]}
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
    whole group, in enumeration order of each class's first member: a tuple
    of classes, each the tuple of its members in enumeration order."""
    elements = enumerate_group(n)
    seen = set()
    partition = []
    for x in elements:
        if x in seen:
            continue
        conjugates = {xi_multiply(xi_multiply(xi_inverse(c), x), c) for c in elements}
        members = tuple(sorted(conjugates, key=element_index))
        seen.update(members)
        partition.append(members)
    return tuple(partition)


def conjugation_pair_orbits(n, m):
    """The orbits of CL(m), embedded in CL(n), on CL(n) x CL(n) by
    simultaneous conjugation, each a frozenset of the pair keys
    i << (n + 1) | j of its members, conjugating through xi_multiply and
    xi_inverse by every signed element of CL(m)."""
    group = enumerate_group(n)
    subgroup = [h for h in group if h.mask >> m == 0]
    seen, orbits = set(), set()
    for x in group:
        for y in group:
            if (x, y) in seen:
                continue
            members = {
                tuple(xi_multiply(xi_multiply(xi_inverse(h), g), h) for g in (x, y))
                for h in subgroup
            }
            seen |= members
            keys = (element_index(a) << (n + 1) | element_index(b) for a, b in members)
            orbits.add(frozenset(keys))
    return orbits


def generic_spherical_character(sigma, at):
    """(1/|H|) sum_h conj chi1(h g1) conj chi2(h g2) conj chi_t(h h1) over
    h in H = CL(m), by xi_multiply and character_value."""
    n, m = sigma.rho1.degree, sigma.theta.degree
    total = gr(0)
    for h in enumerate_group(m):
        hn = CliffordElement(n, h.sign, h.mask)
        hh1 = xi_multiply(hn, at.h)
        total = total + (
            character_value(sigma.rho1, xi_multiply(hn, at.g1))
            * character_value(sigma.rho2, xi_multiply(hn, at.g2))
            * character_value(sigma.theta, CliffordElement(m, hh1.sign, hh1.mask))
        ).conjugate()
    return total / (1 << (m + 1))


def summed_slabs(slots):
    """[(re, im)] with slab k the sum over every row h of a[h, i] b[h, j]
    c[h, k], for slots a, b, c given as (re, im) int64 tables of one row
    count."""
    (a_re, a_im), (b_re, b_im), (c_re, c_im) = slots

    def outer_sum(p, q):
        return np.einsum("hi,hj->ij", p, q)

    slabs = []
    for cr, ci in zip(c_re.T[:, :, None], c_im.T[:, :, None]):
        p_re, p_im = cr * a_re - ci * a_im, cr * a_im + ci * a_re
        slabs.append((
            outer_sum(p_re, b_re) - outer_sum(p_im, b_im),
            outer_sum(p_re, b_im) + outer_sum(p_im, b_re),
        ))
    return slabs


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
    for s1, a1, size1 in classes(n):
        g1 = CliffordElement(n, s1, a1)
        for s2, a2, size2 in classes(n):
            g2 = CliffordElement(n, s2, a2)
            g2i = xi_inverse(g2)
            # fixed g3: g1 g3 g2^-1 = g3
            fixed_left = sum(
                1 for g3 in g_elems
                if xi_multiply(xi_multiply(g1, g3), g2i) == g3
            )
            for s3, a3, size3 in classes(m):
                h = CliffordElement(n, s3, a3)
                hi = xi_inverse(h)
                fixed_right = (
                    sum(
                        1 for g4 in g_elems
                        if xi_multiply(xi_multiply(g2, g4), hi) == g4
                    )
                    if fixed_left
                    else 0
                )
                reps.append(TripleElement(g1, g2, h, m))
                sizes.append(size1 * size2 * size3)
                values.append(fixed_left * fixed_right)
    return EtaCharacter(n, m, reps, sizes, values)


@lru_cache(maxsize=None)
def character_table(n, m=None):
    """(labels, class_keys, sizes, re, im) for the irreps of CL(n) at the
    class representatives of CL(m) embedded in CL(n); m defaults to n.

    class_keys and sizes describe the classes of CL(m); re and im are int64
    arrays of shape (|Irr CL(n)|, |classes of CL(m)|), read-only since the
    result is cached.  Values are Gaussian integers of modulus at most
    2^(n/2).
    """
    if m is None:
        m = n
    if m > n:
        raise DegreeMismatchError(f"cannot embed CL({m}) into CL({n})")
    labels = irreps(n)
    keys = tuple((sign, mask) for sign, mask, _ in classes(m))
    sizes = np.array([size for _, _, size in classes(m)], dtype=np.int64)
    re = np.empty((len(labels), len(keys)), dtype=np.int64)
    im = np.empty_like(re)
    for i, lab in enumerate(labels):
        for j, (sign, mask) in enumerate(keys):
            re[i, j], im[i, j] = char_re_im(lab, sign, mask)
    for arr in (sizes, re, im):
        arr.setflags(write=False)
    return labels, keys, sizes, re, im


def dense_multiplicity_cube(n, m):
    """The (|Irr G|, |Irr G|, |Irr H|) int64 array of every multiplicity
    (1/|H|) sum_h chi1(h) chi2(h) chi_theta(h), by int64 matmuls over the
    classes of H.  Terms are below 2^(2n) in modulus, so nothing overflows
    for n <= 8."""
    labels_g, _, sizes, E_re, E_im = character_table(n, m)
    labels_h, _, _, T_re, T_im = character_table(m)
    order_h = 1 << (m + 1)
    lg, lh = len(labels_g), len(labels_h)
    mult = np.empty((lg, lg, lh), dtype=np.int64)
    wT_re = T_re * sizes
    wT_im = T_im * sizes
    for i in range(lg):
        p_re = E_re[i] * E_re - E_im[i] * E_im  # (lg, classes)
        p_im = E_re[i] * E_im + E_im[i] * E_re
        s_re = p_re @ wT_re.T - p_im @ wT_im.T  # (lg, lh)
        s_im = p_re @ wT_im.T + p_im @ wT_re.T
        if s_im.any():
            raise AssertionError("invariant dimension acquired an imaginary part")
        if (s_re % order_h).any() or (s_re < 0).any():
            raise AssertionError("invariant dimension not a non-negative integer")
        mult[i] = s_re // order_h
    return mult


def class_sum_invariant_dim(rho1, rho2, theta):
    """(1/|H|) sum over the classes of H of size * chi1 chi2 chi_theta, in
    exact integers until the final division."""
    m = theta.degree
    acc_re = acc_im = 0
    for sign, mask, size in classes(m):
        re, im = size, 0
        for lab in (rho1, rho2, theta):
            vre, vim = char_re_im(lab, sign, mask)
            re, im = re * vre - im * vim, re * vim + im * vre
        acc_re += re
        acc_im += im
    order = 1 << (m + 1)
    if acc_im or acc_re % order or acc_re < 0:
        raise AssertionError(f"invariant dimension not in Z>=0: {acc_re} + {acc_im}i over {order}")
    return acc_re // order


def inner_product(f, g):
    """(1/|G|) sum_g f(g) conj(g(g)), class by class; exact."""
    if f.degree != g.degree:
        raise DegreeMismatchError("class function degrees differ")
    n = f.degree
    fv, gv = f.values, g.values
    total = gr(0)
    for sign, mask, size in classes(n):
        total = total + size * fv[sign, mask] * gv[sign, mask].conjugate()
    return total / (1 << (n + 1))


def orthogonality_decompose(f):
    """Multiplicities by the orthogonality relations, class by class: one
    int64 product of the size-weighted values with the conjugated dense
    character table, then the exact division by 2^(n+1) per label.  Values
    below 2^31, table entries of modulus at most 2^8 and 2^17 classes keep
    every sum below 2^57."""
    labels, _, sizes, re, im = character_table(f.degree)
    w_re, w_im = f.re * sizes, f.im * sizes
    ip_re = w_re @ re.T + w_im @ im.T  # f times conj(chi)
    ip_im = w_im @ re.T - w_re @ im.T
    order = 1 << (f.degree + 1)
    terms = []
    for label, a, b in zip(labels, ip_re.tolist(), ip_im.tolist()):
        ip = gr(Fraction(a, order), Fraction(b, order))
        if not ip.is_integer() or ip.re < 0:
            raise NotACharacterError(
                f"not a character: <f, {format_label(label)}> = {ip}"
            )
        if ip.re:
            terms.append((label, int(ip.re)))
    return Decomposition(tuple(terms))


def pairwise_convolution_commutes(n, m):
    """Whether 1_a * 1_b == 1_b * 1_a for every pair of double cosets a, b of
    the diagonal CL(m) in K = CL(n) x CL(n) x CL(m), each convolution one
    bincount over all of K of the products of a's members with b's."""
    tg, _ = mult_table(n)
    th, _ = mult_table(m)
    og, oh = 1 << (n + 1), 1 << (m + 1)
    order = og * og * oh
    idx1, idx2, idx3 = (
        a.ravel()
        for a in np.meshgrid(np.arange(og), np.arange(og), np.arange(oh), indexing="ij")
    )

    def compose(a1, a2, a3, b1, b2, b3):
        return (tg[a1, b1] * og + tg[a2, b2]) * oh + th[a3, b3]

    h_idx = np.arange(oh)
    emb = ((h_idx >> m) << n) | (h_idx & ((1 << m) - 1))
    coset_of = np.full(order, -1, dtype=np.int64)
    cosets = []
    for t in range(order):
        if coset_of[t] >= 0:
            continue
        t1, t2, t3 = idx1[t], idx2[t], idx3[t]
        members = set()
        for a in range(oh):
            l1, l2, l3 = tg[emb[a], t1], tg[emb[a], t2], th[a, t3]
            members.update(compose(l1, l2, l3, emb, emb, h_idx).tolist())
        members = np.fromiter(members, dtype=np.int64)
        coset_of[members] = len(cosets)
        cosets.append(members)
    for a, ca in enumerate(cosets):
        for cb in cosets[a + 1:]:
            ab = compose(
                idx1[ca][:, None], idx2[ca][:, None], idx3[ca][:, None],
                idx1[cb], idx2[cb], idx3[cb],
            )
            ba = compose(
                idx1[cb][:, None], idx2[cb][:, None], idx3[cb][:, None],
                idx1[ca], idx2[ca], idx3[ca],
            )
            if not np.array_equal(
                np.bincount(ab.ravel(), minlength=order),
                np.bincount(ba.ravel(), minlength=order),
            ):
                return False
    return True
