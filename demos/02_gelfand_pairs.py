"""When is (CL(n) x CL(n) x CL(m), diagonal CL(m)) a Gelfand pair?

The multiplicity of theta' in Res_{CL(m)}(rho1 (x) rho2), over all triples
of irreps, decides it.  Equal degrees always work; dropping one degree
works exactly for odd n, and for even n the triple (rho, rho, chi_{}) is
the (unique first) witness of multiplicity 2.

Run:  python3 demos/02_gelfand_pairs.py
"""

from cliffharm import (
    conjugate_label,
    gelfand_check_biinvariant,
    gelfand_check_characters,
    restricted_kronecker,
    rho,
)

print("== verdicts by character multiplicities ==\n")
print(f"{'pair':34s}{'gelfand':9s}max mult")
for n in range(1, 7):
    for m in (n, n - 1):
        if m < 0 or (m == 0 and n != 1):
            continue
        rep = gelfand_check_characters(n, m)
        print(f"{rep.pair_name:34s}{str(rep.gelfand):9s}{rep.max_multiplicity}")

print("\n== the even-degree witness ==\n")
rep = gelfand_check_characters(4, 3)
w = rep.witness
print("witness triple:", w, "with multiplicity", rep.witness_multiplicity)
dec = restricted_kronecker(rho(4), rho(4), 3)
print("Res_3(rho (x) rho) =",
      " + ".join(f"{m}*{lab}" for lab, m in dec.terms))
print("theta' for the witness:", conjugate_label(w.theta))

print("\n== independent check: commutativity of the bi-invariant algebra ==\n")
for n, m in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4)):
    conv = gelfand_check_biinvariant(n, m)
    char = gelfand_check_characters(n, m).gelfand
    marker = "ok" if conv == char else "MISMATCH"
    print(f"(n,m)=({n},{m}): convolution {conv}, characters {char}  [{marker}]")
