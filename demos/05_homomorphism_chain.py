#!/usr/bin/env python3
"""Chain the families together and read off the round lower bound.

A verified homomorphism G -> H gives chi(G) <= chi(H), so a lower bound
on the relaxed family's chromatic number pushes through the typed family
into the realizable-view graph.  The final calculator turns that into a
number of rounds for a target palette.
"""

from colorreduce import (chi_exact, lower_bound_rounds, relaxed_to_typed_hom,
                         typed_to_setlocal_hom, verify_homomorphism)

print("verifying the chain at desk scale (m=3, D=1 and D=2):")
f = relaxed_to_typed_hom(1, 3, 1)
h = typed_to_setlocal_hom(1, 3, 2)
for hom in (f, h):
    report = verify_homomorphism(hom)
    print(f"  {hom.name}: verified={report.ok} "
          f"({hom.domain.n_vertices} -> {hom.codomain.n_vertices} vertices)")

print("\nchromatic numbers respect the chain:")
for hom in (f, h):
    lo = chi_exact(hom.domain)
    hi = chi_exact(hom.codomain)
    print(f"  chi({hom.name}) : {lo.lower} <= {hi.lower}")

print("\nrounds needed to reach C * delta^(1+eta) colors:")
print(f"  {'delta':>7} {'target':>14} {'rounds':>7}")
for delta in (64, 256, 1024, 4096, 16384):
    rep = lower_bound_rounds(delta, 1, 0)
    print(f"  {delta:>7} {'delta colors':>14} {rep.rounds:>7}")
for eta in (0.0, 0.25, 0.5, 0.75):
    rep = lower_bound_rounds(4096, 1, eta)
    print(f"  {4096:>7} {f'delta^{1 + eta:.2f}':>14} {rep.rounds:>7}")
