"""Independent reference solvers used only by the tests.

`sparse_nullspace` is general exact Gaussian elimination over the Gaussian
rationals.  The library solves its unit-phase monomial systems by a gain
graph over Z/4 (`cliffharm.linalg.gain_graph_nullspace`); this elimination
knows nothing of that structure, which makes it the oracle for it.  The row
builders turn a Monomial's phase exponents into Gaussian rationals through
their own table UNITS, not through the library's conversions.
"""

from cliffharm.exact import ONE, ZERO, gr

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
