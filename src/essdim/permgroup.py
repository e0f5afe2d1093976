"""Sylow p-subgroups of S_n as iterated wreath products, acting on weights.

The block layout is fixed: the n mod p leftover positions (base-p digit at
exponent 0) come first and are fixed by the whole group, then one block per
remaining digit unit, in increasing size order.  Within a block of size p^r
the recursive wreath structure uses consecutive sub-blocks of size p^(r-1).
"""

from __future__ import annotations

from functools import cached_property
from itertools import filterfalse, product
from math import prod
from operator import itemgetter
from typing import Callable, List, NamedTuple, Sequence, Set, Tuple

from .lattice import MAX_WITNESS_ENTRIES, LatticeSpec, WeightSet, prime_power_root


class PermError(ValueError):
    pass


class _PermFields(NamedTuple):
    images: Tuple[int, ...]


class Perm(_PermFields):
    """Permutation of {1..n}; images[i-1] is the image of i.  A NamedTuple,
    so immutable and ordered by images; without ``__slots__`` it keeps a
    ``__dict__``, which holds only the cached gather."""

    @classmethod
    def of(cls, images: Sequence[int]) -> "Perm":
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise PermError(f"not a bijection of 1..{len(images)}: {images}")
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @cached_property
    def gather(self) -> Callable[[Sequence], tuple]:
        """Map a length-n sequence to the tuple with its i-th entry at
        position self(i), by indexing through the inverse."""
        if self.n < 2:
            return tuple
        return itemgetter(*(i - 1 for i in self.inverse().images))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Perm(tuple(inv))

    def cycle_string(self) -> str:
        """The cycles of length 2 or more, each from its least point, in the
        order of those points; "()" for the identity."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            x = self(start)
            while x != start:
                cyc.append(x)
                x = self(x)
            seen.update(cyc)
            if len(cyc) > 1:
                out.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(out) or "()"


class PermGroupSpec(NamedTuple):
    """Generating set of a Sylow p-subgroup of S_n plus its block layout;
    order_exponent is v_p(|group|)."""

    generators: Tuple[Perm, ...]
    order_exponent: int
    p: int
    n: int
    blocks: Tuple[Tuple[int, int], ...]  # inclusive 1-based intervals, increasing size


def p_adic_digits(n: int, p: int) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """(n mod-p fixed count, ((n_i, e_i), ...)) with e_i >= 1 increasing,
    for n >= 1."""
    digits = []
    e = 0
    fixed = 0
    while n:
        d = n % p
        if d:
            if e == 0:
                fixed = d
            else:
                digits.append((d, e))
        n //= p
        e += 1
    return fixed, tuple(digits)


def legendre_exponent(n: int, p: int) -> int:
    """v_p(n!) = sum of floor(n / p^i)."""
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def part_levels(n: int, p: int) -> List[int]:
    """The layout of P_n as parts, in position order: 0 for each of the
    n mod p fixed points, then r for each block of size p^r, smallest
    first."""
    fixed, digits = p_adic_digits(n, p)
    return [0] * fixed + [e for mult, e in digits for _ in range(mult)]


def _wreath_generators(offset: int, r: int, p: int, n: int) -> List[Perm]:
    """Generators of the Sylow subgroup on the block [offset+1, offset+p^r]."""
    if r == 0:
        return []
    sub = p ** (r - 1)
    gens = _wreath_generators(offset, r - 1, p, n)
    images = list(range(1, n + 1))
    for t in range(p):
        for x in range(sub):
            images[offset + t * sub + x] = offset + ((t + 1) % p) * sub + x + 1
    gens.append(Perm.of(images))
    return gens


def sylow_subgroup(n: int, p: int) -> PermGroupSpec:
    """The Sylow p-subgroup P_n of S_n, as a direct product of iterated
    wreath products, one per base-p digit unit of n."""
    if prime_power_root(p) != p:
        raise PermError(f"p={p} is not a prime")
    if n < 1:
        raise PermError(f"n must be positive, got {n}")
    blocks: List[Tuple[int, int]] = []
    gens: List[Perm] = []
    pos = 0
    for r in part_levels(n, p):
        if r:
            blocks.append((pos + 1, pos + p ** r))
            gens.extend(_wreath_generators(pos, r, p, n))
        pos += p ** r
    return PermGroupSpec(
        generators=tuple(gens),
        order_exponent=legendre_exponent(n, p),
        p=p,
        n=n,
        blocks=tuple(blocks),
    )


def act(g: Perm, w: Tuple[int, ...]) -> Tuple[int, ...]:
    """Permute entries: the image has w's i-th entry at position g(i)."""
    if g.n != len(w):
        raise PermError(f"degree {g.n} vs lattice length {len(w)}")
    return g.gather(w)  # a permuted valid weight is valid


def _wreath(block: Tuple[int, ...], p: int) -> Tuple[Tuple[int, ...], int, Callable[[], list]]:
    """(least form, orbit size, elements) of block, of size p^r, under
    P_(p^r), elements a callable that lists the orbit.

    P_(p^r) is the wreath product of P_(p^(r-1)) with the rotation of the
    p sub-blocks, so the orbit is the union over the rotations of the
    product of the sub-blocks' orbits, and two rotations give the same
    product, when they give the same word of sub-forms, or disjoint ones.
    So its size is the number of distinct rotations of the sub-forms times
    the product of their orbit sizes, and its least form is the least
    rotation, concatenated."""
    if len(block) == 1:
        return block, 1, lambda: [block]
    m = len(block) // p
    subs = [_wreath(block[t * m:(t + 1) * m], p) for t in range(p)]
    forms = [f for f, _, _ in subs]
    shifts = {tuple(forms[k:] + forms[:k]): k for k in range(p)}  # one shift per rotation

    def elements() -> list:
        orbits = [listed() for _, _, listed in subs]
        return [sum(words, ()) for k in shifts.values()
                for words in product(*orbits[k:], *orbits[:k])]

    return sum(min(shifts), ()), len(shifts) * prod(size for _, size, _ in subs), elements


def orbit_parts(w: Tuple[int, ...], levels: Sequence[int], p: int) -> list:
    """(least form, orbit size, elements) of each part of w under P_n, n =
    len(w), laid out as levels (part_levels(n, p)), by _wreath; no group is
    built.  P_n is the product of its parts' groups, so the orbit of w is
    the product of the parts' orbits (orbit_elements)."""
    parts, lo = [], 0
    for r in levels:
        parts.append(_wreath(w[lo:lo + p ** r], p))
        lo += p ** r
    return parts


def orbit_elements(parts: list) -> List[Tuple[int, ...]]:
    """The orbit whose parts are parts (orbit_parts), listed, unsorted."""
    return [sum(words, ()) for words in product(*(listed() for _, _, listed in parts))]


def _group_parts(group: PermGroupSpec, w: Tuple[int, ...]) -> list:
    """orbit_parts of w under group, a Sylow subgroup, once w's length is
    checked against the group's degree."""
    if group.n != len(w):
        raise PermError(f"degree {group.n} vs lattice length {len(w)}")
    return orbit_parts(w, part_levels(group.n, group.p), group.p)


def orbit_size(group: PermGroupSpec, w: Tuple[int, ...]) -> int:
    """|orbit of w| under group, a Sylow subgroup, without listing it: the
    product of its parts' sizes."""
    return prod(size for _, size, _ in _group_parts(group, w))


def _check_orbit(count: int, n: int) -> None:
    """Refuse an orbit of count weights of length n past MAX_WITNESS_ENTRIES
    entries."""
    if count * n > MAX_WITNESS_ENTRIES:
        raise PermError(f"orbit too large: {count} weights of length {n}, "
                        f"more than {MAX_WITNESS_ENTRIES} entries")


def orbit_closure(group: PermGroupSpec, w: Tuple[int, ...]) -> Set[Tuple[int, ...]]:
    """The closure of {w} under the generators, as a set, unsorted; refused
    before it starts when w's length is not the group's degree, or when the
    orbit has more than MAX_WITNESS_ENTRIES entries (weights times n).  The
    degree is checked once here, so each image is one gather (act checks it
    on every call).  Only constructions.lambda_d closes an orbit; every
    other one is listed by orbit_parts, which the tests check against this."""
    n = len(w)
    if group.n != n:
        raise PermError(f"degree {group.n} vs lattice length {n}")
    # |orbit| divides |group|, so only a large group can pass the budget
    if group.p ** group.order_exponent * n > MAX_WITNESS_ENTRIES:
        _check_orbit(orbit_size(group, w), n)
    gathers = [g.gather for g in group.generators]
    seen = frontier = {w}
    while frontier:  # breadth first, one level at a time
        new: Set[Tuple[int, ...]] = set()
        for gather in gathers:  # an image already seen is dropped at once
            new.update(filterfalse(seen.__contains__, map(gather, frontier)))
        frontier = new
        seen |= new
    return seen


def orbit(group: PermGroupSpec, w: Tuple[int, ...], spec: LatticeSpec) -> WeightSet:
    """The orbit of w under group, a Sylow subgroup, as a weight set of
    spec, the lattice w lies in, listed from its parts (orbit_parts):
    refused, before anything is listed, when w's length is not the group's
    degree, or when the orbit has more than MAX_WITNESS_ENTRIES entries."""
    parts = _group_parts(group, w)
    _check_orbit(prod(size for _, size, _ in parts), len(w))
    return WeightSet.of(orbit_elements(parts), spec)


def center_order_p_elements(group: PermGroupSpec) -> Tuple[Perm, ...]:
    """All non-identity elements of the center's p-torsion, in sorted order:
    per block, a power k of the rotation x -> x + 1 of each consecutive
    p-run, which generates the center of the wreath product on that block;
    count p^(#blocks) - 1.  The fixed points lie in no block and are fixed by
    every element."""
    p, blocks = group.p, group.blocks
    out: List[Perm] = []
    for code in range(1, p ** len(blocks)):
        images = list(range(1, group.n + 1))
        for b, (lo, hi) in enumerate(blocks):
            k = code // p ** b % p
            images[lo - 1:hi] = [start + (x + k) % p
                                 for start in range(lo, hi + 1, p) for x in range(p)]
        out.append(Perm(tuple(images)))
    return tuple(sorted(out))
