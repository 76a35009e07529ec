"""Spherical characters of (CL(n)^3, diagonal), orbits, and closed forms.

The diagonal conjugation action on pairs has orbits of size 1, 2 or 4 with
a complete case analysis; spherical characters are constant on the induced
triples and admit closed forms family by family.  Permuting the (label,
point) slots together leaves a spherical character unchanged, so every
ordering of chi and spin labels is one of the chi-first families.

Run:  python3 demos/03_spherical_characters.py
"""

from cliffharm import (
    TripleIrrepLabel,
    chi,
    element,
    enumerate_pair_orbits,
    format_element,
    predicted_orbit,
    rho,
    spherical_closed_form,
    spherical_value,
)
from cliffharm.elements import TripleElement
from cliffharm.exact import format_gaussian
from cliffharm.orbits import SphericalQuery, closed_vs_direct_grids

n = 3
print(f"== pair orbits under conjugation, n = {n} ==\n")
orbits = enumerate_pair_orbits(n)
by_size = {}
for o in orbits:
    by_size.setdefault(o.size, []).append(o)
for size in sorted(by_size):
    print(f"size {size}: {len(by_size[size])} orbits, e.g.",
          tuple(format_element(e) for e in by_size[size][0].representative))

# the disjoint-cover case locks the two signs together (odd n only)
p = (element(n, 1, (1,)), element(n, 1, (2, 3)))
orb = predicted_orbit(p, n)
print("\ndisjoint cover pair", tuple(format_element(e) for e in p),
      "-> orbit", [tuple(format_element(e) for e in q) for q in orb.members])

print("\n== closed forms vs direct summation ==\n")
sigma = TripleIrrepLabel(chi(n, (1,)), rho(n, "+"), rho(n, "-"))
for masks in (((1,), (1,), ()), ((1, 2), (1,), (2, 3)), ((), (2,), (1, 3))):
    t = TripleElement(
        element(n, 1, masks[0]), element(n, 1, masks[1]), element(n, 1, masks[2]), n
    )
    q = SphericalQuery(sigma, t)
    res = spherical_closed_form(q)
    direct = spherical_value(q)
    at = ", ".join(format_element(g) for g in (t.g1, t.g2, t.h))
    print(f"psi({at}) = {format_gaussian(res.value):8s}"
          f" [family {res.family}, direct {format_gaussian(direct)}]")

# swapping the first two (label, point) slots together keeps the value
for sigma, gs in (
    (TripleIrrepLabel(chi(n, (1,)), rho(n, "+"), rho(n, "+")), ((1,), (), (1, 2, 3))),
    (TripleIrrepLabel(rho(n, "+"), chi(n, (1,)), rho(n, "+")), ((), (1,), (1, 2, 3))),
):
    t = TripleElement(*(element(n, 1, g) for g in gs), n)
    q = SphericalQuery(sigma, t)
    res = spherical_closed_form(q)
    at = ", ".join(format_element(g) for g in (t.g1, t.g2, t.h))
    print(f"{str(sigma):22s} psi({at}) = {format_gaussian(res.value)}"
          f" [family {res.family}, direct {format_gaussian(spherical_value(q))}]")

print("\n== exhaustive grids (every family, every sign, every subset) ==\n")
for deg in (1, 2, 3):
    for rep in closed_vs_direct_grids(deg):
        print(f"n={deg}  {rep.family:12s} {rep.points:>9d} points  "
              f"{'agree' if rep.agree else 'DISAGREE'}")
