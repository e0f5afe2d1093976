"""Brute-force references the tests compare the library against: slow,
written from the definitions, and reached from no code path of the package."""

from essdim.constructions import permute_coefficients
from essdim.lattice import kernel_generators_mod
from essdim.permgroup import Perm


def group_elements(group):
    """Every element of the group, by closing the identity under left
    multiplication by the generators, in sorted order."""
    ident = Perm.identity(group.n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in group.generators:
                y = g * x
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def faithful_by_enumeration(lam, group):
    """True iff every non-identity element of the group moves some
    generator of Ker(phi), each moved by permute_coefficients."""
    gens = []
    for vec in kernel_generators_mod(lam):
        dense = [0] * len(lam)
        for i, c in vec:
            dense[i] = c
        gens.append(tuple(dense))
    return all(any(permute_coefficients(g, lam, v) != v for v in gens)
               for g in group_elements(group) if not g.is_identity())
