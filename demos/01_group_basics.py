"""Tour of the Clifford group CL(n): elements, multiplication, classes,
and the irreducible characters.

Run:  python3 demos/01_group_basics.py
"""

from cliffharm import (
    CliffordElement,
    element,
    format_element,
    identity,
    inverse,
    irrep_character,
    irreps,
    multiply,
)
from cliffharm.elements import class_keys, is_central
from cliffharm.exact import format_gaussian

n = 3
print(f"== CL({n}): signed gamma monomials, order {2 ** (n + 1)} ==\n")

# generators anticommute and square to one
g1 = element(n, 1, (1,))
g2 = element(n, 1, (2,))
print("gamma_1 * gamma_2 =", format_element(multiply(g1, g2)))
print("gamma_2 * gamma_1 =", format_element(multiply(g2, g1)))
print("gamma_1 * gamma_1 =", format_element(multiply(g1, g1)))

g123 = element(n, 1, (1, 2, 3))
print("\ngamma_{1,2,3} has inverse", format_element(inverse(g123)))
print("check:", format_element(multiply(g123, inverse(g123))),
      "==", format_element(identity(n)))

# conjugacy classes: central elements are singletons, the rest pair up as +-x
print(f"\n== conjugacy classes of CL({n}) ==")
reps = [CliffordElement(n, s, m) for s, m in zip(*(a.tolist() for a in class_keys(n)))]
for x in reps:
    print(f"  {format_element(x):12s} size {1 if is_central(x.mask, n) else 2}")

# the character table: 2^n linear characters plus the spin characters
print(f"\n== irreducible characters of CL({n}) ==")
header = "  ".join(f"{format_element(x):>9s}" for x in reps)
print(f"{'':12s}{header}")
for lab in irreps(n):
    f = irrep_character(lab)
    row = "  ".join(f"{format_gaussian(f.value_at(x)):>9s}" for x in reps)
    print(f"{str(lab):12s}{row}")

print("\nsum of squared dimensions:",
      sum(lab.dim ** 2 for lab in irreps(n)), "= |CL(3)| =", 2 ** (n + 1))
