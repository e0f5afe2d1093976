"""Sylow p-subgroups of S_n as iterated wreath products, acting on weights.

The block layout is fixed: the n mod p leftover positions (base-p digit at
exponent 0) come first and are fixed by the whole group, then one block per
remaining digit unit, in increasing size order.  Within a block of size p^r
the recursive wreath structure uses consecutive sub-blocks of size p^(r-1).
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Callable, List, NamedTuple, Sequence, Tuple

from .lattice import LatticeSpec, WeightSet, prime_power_root


class PermError(ValueError):
    pass


class Perm:
    """Permutation of {1..n}; images[i-1] is the image of i.  Immutable and
    ordered by images; the ``__dict__`` holds only the cached gather."""

    __slots__ = ("images", "__dict__")

    def __init__(self, images: Tuple[int, ...]) -> None:
        object.__setattr__(self, "images", images)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: Perm is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images < other.images

    def __hash__(self) -> int:
        return hash((self.images,))

    def __repr__(self) -> str:
        return f"Perm(images={self.images!r})"

    @classmethod
    def of(cls, images: Sequence[int]) -> "Perm":
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise PermError(f"not a bijection of 1..{len(images)}: {images}")
        return cls(images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, text: str, n: int) -> "Perm":
        """Parse cycle notation like "(1 2)(3 4)"; points are whitespace
        separated, fixed points may be omitted."""
        images = list(range(1, n + 1))
        text = text.strip()
        if text and text not in ("()", "e", "id"):
            if not (text.startswith("(") and text.endswith(")")):
                raise PermError(f"bad cycle notation: {text!r}")
            for chunk in text[1:-1].split(")("):
                pts = [int(t) for t in chunk.replace(",", " ").split()]
                if len(set(pts)) != len(pts) or any(not 1 <= x <= n for x in pts):
                    raise PermError(f"bad cycle {chunk!r} for n={n}")
                for a, b in zip(pts, pts[1:] + pts[:1]):
                    images[a - 1] = b
        if sorted(images) != list(range(1, n + 1)):
            raise PermError(f"cycles overlap in {text!r}")
        return cls.of(images)

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

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise PermError("degree mismatch")
        return Perm(tuple(self.images[other.images[i] - 1] for i in range(self.n)))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Perm(tuple(inv))

    def cycles(self) -> List[Tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cyc)


class PermGroupSpec(NamedTuple):
    """Generating set of a Sylow p-subgroup of S_n plus its block layout;
    order_exponent is v_p(|group|)."""

    generators: Tuple[Perm, ...]
    order_exponent: int
    p: int
    n: int
    blocks: Tuple[Tuple[int, int], ...]  # inclusive 1-based intervals, increasing size


def p_adic_digits(n: int, p: int) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """(n mod-p fixed count, ((n_i, e_i), ...)) with e_i >= 1 increasing."""
    if n < 1:
        raise PermError(f"n must be positive, got {n}")
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
    if n < 1:
        raise PermError("n must be positive")
    if prime_power_root(p) != p:
        raise PermError(f"p={p} is not a prime")
    fixed, digits = p_adic_digits(n, p)
    blocks: List[Tuple[int, int]] = []
    pos = fixed
    gens: List[Perm] = []
    for mult, e in digits:
        size = p ** e
        for _ in range(mult):
            blocks.append((pos + 1, pos + size))
            gens.extend(_wreath_generators(pos, e, p, n))
            pos += size
    assert pos == n
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


def orbit(group: PermGroupSpec, w: Tuple[int, ...], spec: LatticeSpec) -> WeightSet:
    """Closure of {w} under the generators (breadth-first), as a weight set
    of spec, the lattice w lies in."""
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for x in frontier:
            for g in group.generators:
                y = act(g, x)
                size = len(seen)
                seen.add(y)  # one hash per image
                if len(seen) > size:
                    nxt.append(y)
        frontier = nxt
    return WeightSet.of(seen, spec)


def _block_rotation(block: Tuple[int, int], p: int, n: int) -> Perm:
    """Product of the disjoint p-cycles rotating each consecutive p-run of the
    block; generates the center of the wreath product on that block."""
    lo, hi = block
    images = list(range(1, n + 1))
    for start in range(lo, hi + 1, p):
        for x in range(p):
            images[start + x - 1] = start + (x + 1) % p
    return Perm.of(images)


def center_order_p_elements(group: PermGroupSpec) -> Tuple[Perm, ...]:
    """All non-identity elements of the center's p-torsion: per block, powers
    of the product-of-p-cycles rotation; count p^(#blocks) - 1.  The fixed
    points lie in no block and are fixed by every element."""
    p = group.p
    rotations = [_block_rotation(b, p, group.n) for b in group.blocks]
    out: List[Perm] = []
    total = p ** len(rotations)
    for code in range(1, total):
        c = code
        g = Perm.identity(group.n)
        for rot in rotations:
            k = c % p
            c //= p
            for _ in range(k):
                g = g * rot
        out.append(g)
    return tuple(sorted(out))
