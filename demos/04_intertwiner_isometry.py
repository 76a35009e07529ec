"""The exact unitary correspondence between intertwiner spaces.

For a triple of irreps (rho1, rho2, theta) the space of intertwiners from
rho1 x rho2 x theta into the two-sided permutation module on G x G matches
Hom(Res(rho1 (x) rho2), theta'), via an explicit pair of mutually inverse
maps that is an isometry up to the stated sqrt(2)-power constants.  All of
it is checked here in exact arithmetic.

Run:  python3 demos/04_intertwiner_isometry.py
"""

from cliffharm import FrobeniusContext, diagonal_invariant_dim, irreps
from cliffharm.exact import format_gaussian
from cliffharm.linalg import ScaledMatrix, hs_inner, scaled_hs_inner

n, m = 2, 1
print(f"== triples over CL({n}) x CL({n}) x CL({m}) ==\n")
print(f"{'triple':34s}{'dim Hom':9s}{'roundtrip':11s}isometry")
for r1 in irreps(n):
    for r2 in irreps(n):
        for th in irreps(m):
            ctx = FrobeniusContext(n, m, r1, r2, th)
            he = ctx.hom_triple_eta()
            hs = ctx.hom_res_theta_prime()
            d = diagonal_invariant_dim(r1, r2, th)
            if not he.dimension == hs.dimension == d:
                raise SystemExit(
                    f"dimension mismatch at ({r1}, {r2}, {th}): Hom(triple, eta) "
                    f"{he.dimension}, Hom(Res, theta') {hs.dimension}, characters {d}"
                )

            tildes = [ctx.tilde(t) for t in he.basis]
            roundtrip = all(
                ctx.hat(tt) == ScaledMatrix(0, t)
                for t, tt in zip(he.basis, tildes)
            )
            isometry = all(
                scaled_hs_inner(tildes[i], tildes[j])
                == hs_inner(he.basis[i], he.basis[j])
                for i in range(d)
                for j in range(d)
            )
            name = f"({r1}, {r2}, {th})"
            print(f"{name:34s}{d:<9d}{str(roundtrip):11s}{isometry}")

print("\n== invariant tensors give the same operators two ways ==\n")
labs = [lab for lab in irreps(n) if lab.kind == "rho"]
ctx = FrobeniusContext(n, m, labs[0], labs[0], irreps(m)[0])
for b in ctx.invariant_tensors():
    closed = ctx.operator_from_invariant(b)
    generic = ctx.operator_from_invariant_via_cosets(b)
    print("closed form == generic coset formula:", closed == generic)
    print("tilde of the operator == direct corollary form:",
          ctx.tilde(closed) == ctx.tilde_from_invariant(b))
    norm = scaled_hs_inner(ctx.tilde(closed), ctx.tilde(closed))
    print("norm of the tilde image:", format_gaussian(norm))
