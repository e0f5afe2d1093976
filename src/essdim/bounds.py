"""Lower-bound machinery: the exact minimum of an invariant generating set of
the zero-sum lattice mod q, its orbit representatives and counts, and naive
oracles.

The minimum rests on one lemma.  P_n is a p-group, so F_p[P_n] is local with
maximal ideal its augmentation ideal I, and by Nakayama a union of orbits
generates X_n / q iff its orbit representatives span the coinvariants
C = V / IV, V = X_n / p X_n.  ``coinvariant_class`` reads the class of a
vector in C off its part sums, in closed form.  The minimum is then a
minimum-weight basis of a linear matroid, which the greedy in ascending
orbit order finds exactly (Edmonds 1971).

The greedy steps over runs, not orbits.  The orbits come from ``_Stream``,
which builds each orbit's least element from canonical forms of the Sylow
subgroup's blocks, in the greedy's order and without listing the lattice,
and groups them into runs of consecutive orbits that share the sums the
class reads: the last part's forms under a fixed head of the other parts,
or on one block the forms that share all but their last sub-form.  A run
is one class and one count, read off the level tables of ``_level_counts``
(Burnside by exponent and entry sum) or off the length of its tail, and one
F_p echelon step in dim C <= #parts - 1 coordinates decides it; only a kept
orbit's representative and elements are built, the elements listed from the
parts' blocks (``_orbit_elements``), with no group.  On one block the exponents
below the first orbit of nonzero class are counted by ``_class_counts`` and
not walked at all.  No orbit past the exponent cap, the largest e with
p^e <= witness_size(n, p), is listed or walked: the paper's Lambda bounds
the largest orbit the greedy keeps (the proof is in
``min_invariant_generating_size``).

A search is refused by ``check_search``, from those counts, before anything
is listed: when the witness bound, the entries of the forms the stream would
list and the runs it could step over pass ``MAX_WITNESS_ENTRIES``.  The
witness is certified by ``lattice.spans``, which reads a mod-q set's span
off its F_p rank, again by Nakayama; the naive oracles call the same
predicate.
"""

from __future__ import annotations

import functools
import itertools
import time
from bisect import bisect_left, bisect_right
from operator import mul
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .lattice import (
    MAX_WITNESS_ENTRIES,
    LatticeSpec,
    WeightSet,
    echelon_mod_p,
    prime_power_root,
    spans,
    vp,
)
from .constructions import case_of, witness_size
from .permgroup import PermGroupSpec, act, orbit, p_adic_digits, sylow_subgroup


class BoundsError(ValueError):
    pass


class SearchResult(NamedTuple):
    minimum: int
    witness: WeightSet
    nodes_explored: int
    orbit_count: int
    elapsed: float

    def to_json(self) -> dict:
        return {
            "minimum": self.minimum,
            "witness": self.witness.to_json(),
            "nodes_explored": self.nodes_explored,
            "orbit_count": self.orbit_count,
            "elapsed_ms": int(self.elapsed * 1000),
        }


def lattice_elements(spec: LatticeSpec) -> List[Tuple[int, ...]]:
    """All q^(n-1) elements of the zero-sum mod-q lattice, lexicographic."""
    q = spec.modulus
    if not q:
        raise BoundsError("finite enumeration needs a modulus")
    return [head + (-sum(head) % q,) for head in itertools.product(range(q), repeat=spec.n - 1)]


def orbit_decomposition(group: PermGroupSpec, spec: LatticeSpec) -> List[WeightSet]:
    """P_n-orbits of the finite lattice, sorted by (size, representative)."""
    seen = set()
    orbits = []
    # lattice_elements is lexicographic, so each unseen element is the least
    # element of its orbit
    for w in lattice_elements(spec):
        if w not in seen:
            orb = orbit(group, w, spec)
            orbits.append(orb)
            seen.update(orb.elements)
    orbits.sort(key=lambda o: (len(o), o.elements))
    return orbits


def _nonzero_orbits(spec: LatticeSpec, p: int) -> List[WeightSet]:
    """The P_n-orbits of the finite lattice, without the zero orbit."""
    return [o for o in orbit_decomposition(sylow_subgroup(spec.n, p), spec)
            if not (len(o) == 1 and not any(o.elements[0]))]


def _levels(n: int, p: int) -> List[int]:
    """The layout of P_n as parts, in position order: 0 for each of the
    n mod p fixed points, then r for each block of size p^r, smallest
    first."""
    fixed, digits = p_adic_digits(n, p)
    return [0] * fixed + [e for mult, e in digits for _ in range(mult)]


def _exponent_cap(size: int, p: int) -> int:
    """The largest e with p^e <= size, -1 at size 0; at size =
    witness_size(n, p), no orbit the greedy keeps is larger
    (min_invariant_generating_size)."""
    e = -1
    while p ** (e + 1) <= size:
        e += 1
    return e


# Orbit counts.  A table counts the orbits of a block, or of the layout, by
# (exponent, residue of the entry sum mod q): a dict from (e, s) to the
# count, zero counts left out, e at most top, top counting every exponent
# >= top.  Adding c to every entry of a block of size p^r permutes its
# orbits and adds p^r c to the sum, so the counts have period g = gcd(p^r,
# q) in s, and the table keeps s mod g: it is the pair (g, dict).
Table = Tuple[int, Dict[Tuple[int, int], int]]


def _product(a: Table, b: Table, q: int, top: int) -> Table:
    """The table of the pairs of an orbit counted by a and one counted by
    b: the exponents add, up to top, and the sums add mod q.  Over the
    shorter period g, each residue of the longer one is met q / g' times."""
    if a[0] > b[0]:
        a, b = b, a
    (g, x), (g2, y) = a, b
    scale = q // g2
    out: Dict[Tuple[int, int], int] = {}
    for (e1, s1), n1 in x.items():
        for (e2, s2), n2 in y.items():
            key = (min(e1 + e2, top), (s1 + s2) % g)
            out[key] = out.get(key, 0) + n1 * n2 * scale
    return g, out


def _level_counts(p: int, q: int, top: int) -> Iterator[Table]:
    """The tables of the blocks of level r = 0, 1, ..., by Burnside over the
    rotation of a block's p sub-blocks: a p-tuple of sub-orbits that are not
    all equal lies in a free rotation orbit, of exponent 1 plus the sum of
    theirs; p equal ones, of sum p s, are one orbit of exponent p e."""
    table: Table = (1, {(0, 0): 1})
    while True:
        yield table
        g, counts = table
        tuples = table
        for _ in range(p - 1):
            tuples = _product(table, tuples, q, top)
        period = min(p * g, q)
        # p equal sub-orbits: the q / g sums s + k g go to p s + k p g, each
        # residue of period p g reached p times (once when g = q)
        const: Dict[Tuple[int, int], int] = {}
        for (e, s), n in counts.items():
            key = (min(p * e, top), p * s % period)
            const[key] = const.get(key, 0) + (p if g < q else 1) * n
        grown = dict(const)
        for (e, s), n in tuples[1].items():
            for t in range(s, period, g):
                moving = (n - const.get((e, t), 0)) // p
                if moving:
                    key = (min(e + 1, top), t)
                    grown[key] = grown.get(key, 0) + moving
        table = (period, grown)


def _zero_sums(tables: List[Table], levels: List[int], q: int) -> int:
    """The zero-sum orbits of the layout, of every exponent, the zero orbit
    included: the parts' tables multiplied, their exponents merged."""
    total = tables[levels[-1]]
    for r in levels[:-1]:
        total = _product(tables[r], total, q, 0)
    return sum(n for (_, s), n in total[1].items() if not s)


def _class_counts(sub: Table, p: int, q: int, top: int) -> Tuple[List[int], List[int]]:
    """For a block over the sub-block table sub, its zero-sum orbits by
    exponent, and those of nonzero class, the class sum_k k s_k mod p of
    the sums s_k of its p sub-blocks (coinvariant_class).  On zero-sum
    p-tuples the class is invariant under rotation, so Burnside counts the
    tuples by (exponent, sum, class) as _level_counts does by (exponent,
    sum), over a period raised to p, where k s_k mod p is read."""
    g, counts = sub
    period = max(g, p)
    scale = q // period
    slot = [(e, t, n) for (e, s), n in counts.items() for t in range(s, period, g)]
    tuples = {(e, t, 0): n for e, t, n in slot}
    for k in range(1, p - 1):
        grown: Dict[Tuple[int, int, int], int] = {}
        for (e1, s1, c1), n1 in tuples.items():
            for e2, s2, n2 in slot:
                key = (min(e1 + e2, top), (s1 + s2) % period, (c1 + k * s2) % p)
                grown[key] = grown.get(key, 0) + n1 * n2 * scale
        tuples = grown
    # the last slot's sum is the one that makes the tuple's sum zero
    by_sum: Dict[int, List[Tuple[int, int]]] = {}
    for e, t, n in slot:
        by_sum.setdefault(t, []).append((e, n))
    split = [[0, 0] for _ in range(top + 1)]
    for (e1, s1, c1), n1 in tuples.items():
        s2 = -s1 % period
        c = (c1 + (p - 1) * s2) % p > 0
        for e2, n2 in by_sum.get(s2, ()):
            split[min(e1 + e2, top)][c] += n1 * n2 * scale
    # p equal sub-orbits of zero sum s, s = k q / p, have class s p (p - 1)
    # / 2: nonzero only at p = 2 and s = q / 2 odd, that is q = 2 and s = 1
    const = [[0, 0] for _ in range(top + 1)]
    for (e, s), n in counts.items():
        for k in range(p):
            if (k * q // p - s) % g == 0:
                const[min(p * e, top)][q == 2 and k == 1] += n
    out = [list(c) for c in const]
    for e, (row, crow) in enumerate(zip(split, const)):
        for c in (0, 1):
            out[min(e + 1, top)][c] += (row[c] - crow[c]) // p
    return [a + b for a, b in out], [b for _, b in out]


def _counts(p: int, q: int, levels: List[int], top: int) -> Tuple[List[Table], int]:
    """(tables, zero-sum orbits) of the layout, exponents up to top."""
    tables = list(itertools.islice(_level_counts(p, q, top), max(levels) + 1))
    return tables, _zero_sums(tables, levels, q)


def _least_letter(t: Tuple[int, ...]) -> Optional[int]:
    """The letter x such that the word t + (i,), every letter of t at least
    t[0], is strictly least among its rotations iff i > x; None if no i is
    (Fredricksen-Maiorana: t must be a prefix of a necklace, and its last
    letter is compared with the one a period of t's longest Lyndon prefix
    back)."""
    period = 1
    for k in range(1, len(t)):
        if t[k] > t[k - period]:
            period = k + 1
        elif t[k] < t[k - period]:
            return None
    return t[len(t) - period]


class _Points:
    """The level-0 forms ((v,), 0, v), v < q, and their (exponent, residue) index, unlisted."""

    def __init__(self, q: int) -> None:
        self.q = q

    def __getitem__(self, v: int) -> Tuple[Tuple[int], int, int]:
        if not 0 <= v < self.q:
            raise IndexError(v)
        return (v,), 0, v

    def get(self, key: Tuple[int, int], default: list) -> list:
        return [key[1]] if key[0] == 0 else default


def _needs(levels: List[int], cap: int) -> Dict[int, int]:
    """The largest exponent of a level-r form in an orbit of exponent at
    most cap, for each level r: a level-r form lies at depth k - r in a
    part of level k >= r, and each level above it adds at least 1."""
    need, k = {}, 0
    for r in range(levels[-1] + 1):  # levels go up
        while levels[k] < r:
            k += 1
        need[r] = cap - (levels[k] - r)
    return need


class _Stream:
    """The nonzero orbits of P_n, the Sylow p-subgroup of S_n, on the
    zero-sum lattice mod q, of exponent at most cap, in (size,
    representative) order, without listing the lattice, as runs of
    consecutive orbits whose representatives share the sums that
    coinvariant_class reads.

    On a block of size p^r, the wreath product of P_{p^(r-1)} with the
    rotation of its p sub-blocks, an orbit's least element is the least
    rotation of the p sub-blocks' least forms, and its size exponent is p
    times the sub-exponent when the p forms are equal, else 1 plus their sum.
    Across the fixed points and blocks, the orbits are products, the least
    element is the concatenation and the exponents add.  So each exponent
    is walked in lexicographic order part by part, the zero-sum condition
    fixing the residue of the last part.  A run is the last part's forms
    under a fixed head of the other parts, counted from the level tables,
    or, on one block, the forms that share their first p - 1 sub-forms (the
    last one's residue is then fixed, and the words whose last letter
    passes a threshold are the least rotations).  Every level below the
    last part, and every other part's level, is listed once, only up to the
    exponent an orbit of exponent cap can hold there, and indexed by
    exponent, so a slot reads only the sub-forms that can reach its target;
    level 0's forms are range(q), never listed.
    """

    def __init__(self, p: int, q: int, levels: List[int], need: Dict[int, int],
                 tables: List[Table]) -> None:
        self.p, self.q, self.levels, self.need, self.tables = p, q, levels, need, tables
        # the exponents parts k, k + 1, ... can hold, each v_p((p^r)!)
        self.reach = list(itertools.accumulate(
            ((p ** r - 1) // (p - 1) for r in reversed(levels)), initial=0))[::-1]
        self.listed: Dict[int, list] = {0: _Points(q)}
        self.keyed: Dict[int, dict] = {0: self.listed[0]}
        self.by_exponent: Dict[int, List[List[int]]] = {}
        self.windows: Dict[Tuple[int, int, int], list] = {}

    def most(self, r: int) -> int:
        """The largest exponent in listing(r): need[r], or that of a block,
        v_p(p^r!) = (p^r - 1) / (p - 1)."""
        return min(self.need[r], (self.p ** r - 1) // (self.p - 1))

    def listing(self, r: int) -> list:
        """(form, exponent, residue) of the level-r forms of exponent at
        most need[r], in lexicographic order; its indices are kept by
        exponent and by (exponent, residue), each list going up."""
        if r not in self.listed:
            self.listed[r] = forms = list(self.forms(r))
            self.by_exponent[r] = by_exponent = [[] for _ in range(self.most(r) + 1)]
            self.keyed[r] = keyed = {}
            for i, (_, e, s) in enumerate(forms):
                by_exponent[e].append(i)
                keyed.setdefault((e, s), []).append(i)
        return self.listed[r]

    def window(self, r: int, lo: int, hi: int) -> Sequence[int]:
        """The indices into listing(r) of the forms of exponent lo..hi, up."""
        lo, hi = max(lo, 0), min(hi, self.most(r))
        if r == 0:
            return range(self.q if lo <= 0 <= hi else 0)
        if (r, lo, hi) not in self.windows:
            self.listing(r)
            self.windows[r, lo, hi] = sorted(itertools.chain.from_iterable(
                self.by_exponent[r][lo:hi + 1]))
        return self.windows[r, lo, hi]

    def necklaces(self, r: int, want: Optional[Tuple[int, int]] = None):
        """The level-r forms, those with (exponent, residue) = want or all
        of exponent at most need[r], as runs (prefix, tail, start) in
        lexicographic order, r >= 1 and want[0] >= 1: the forms of the
        index words prefix + (i,) into listing(r - 1), i in tail[start:],
        words strictly least among their rotations, or, with start None,
        the one form of p equal sub-forms, prefix + tail = (i0,) * p."""
        p, q = self.p, self.q
        sub = self.listing(r - 1)
        most = self.most(r - 1)
        if want is None:
            lo, hi = 0, self.need[r] - 1
        else:
            lo = hi = want[0] - 1
            index = self.keyed[r - 1]

        def words(t, e, s):
            # the runs of words t + (...), each entry at least t[0], whose
            # p entries' exponents sum to lo..hi
            slots = p - len(t)
            if slots == 1:
                least = _least_letter(t)
                if least is not None:
                    tail = (self.window(r - 1, 0, hi - e) if want is None
                            else index.get((hi - e, (want[1] - s) % q), ()))
                    start = bisect_right(tail, least)
                    if start < len(tail):
                        yield t, tail, start
                return
            window = self.window(r - 1, lo - e - (slots - 1) * most, hi - e)
            for i in window[bisect_left(window, t[0]):]:
                yield from words(t + (i,), e + sub[i][1], s + sub[i][2])

        for i0 in self.window(r - 1, lo - (p - 1) * most, max(hi, 0)):
            _, e0, s0 = sub[i0]
            if (p * e0 <= hi + 1) if want is None else want == (p * e0, p * s0 % q):
                yield (i0,) * (p - 1), (i0,), None
            if e0 <= hi:
                yield from words((i0,), e0, s0)

    def forms(self, r: int, want: Optional[Tuple[int, int]] = None):
        """(form, exponent, residue) of the level-r forms with (exponent,
        residue) = want, or of all of exponent at most need[r], in
        lexicographic order."""
        p, q = self.p, self.q
        if want is not None and want[0] == 0:
            # an orbit of size 1 is a constant block (v, ..., v), p^r v = want[1]
            g = min(p ** r, q)  # gcd(p^r, q): v = want[1] / g mod q / g
            for v in range(want[1] // g, q, q // g) if want[1] % g == 0 else ():
                yield (v,) * p ** r, 0, want[1]
            return
        sub = self.listing(r - 1)
        for prefix, tail, start in self.necklaces(r, want):
            head = tuple(x for i in prefix for x in sub[i][0])
            if start is None:
                f, e, s = sub[tail[0]]
                yield head + f, p * e, p * s % q
                continue
            e = sum(sub[i][1] for i in prefix) + 1
            s = sum(sub[i][2] for i in prefix)
            for i in itertools.islice(tail, start, None):
                f, ei, si = sub[i]
                yield head + f, e + ei, (s + si) % q

    def heads(self, k: int, e: int, s: int, idx: Tuple[int, ...], sums: Tuple[int, ...]):
        """(indices, exponent left, residue, sums) of the forms of parts
        k, ..., last - 1 under idx, lexicographic, whose exponents leave
        the later parts 0..reach of e."""
        if k == len(self.levels) - 1:
            yield idx, e, s, sums
            return
        r = self.levels[k]
        forms = self.listing(r)
        for i in self.window(r, e - self.reach[k + 1], e):
            _, ek, sk = forms[i]
            yield from self.heads(k + 1, e - ek, s + sk, idx + (i,), sums + (sk,))

    def runs(self, e: int):
        """(count, sums, reps) of the runs of exponent e in order: how many
        orbits, the sums their class reads (coinvariant_class: the part
        sums but the last, or on one block the sub-block sums), and a
        callable that lists their representatives."""
        p, q, levels = self.p, self.q, self.levels
        last = levels[-1]
        if len(levels) > 1:
            g, counts = self.tables[last]
            for idx, left, s, sums in self.heads(0, e, 0, (), ()):
                count = counts.get((left, -s % g), 0)
                if count:
                    yield count, sums, functools.partial(self.head_reps, idx, (left, -s % q))
        elif last and not e:
            m = p ** (last - 1)
            for f, _, _ in self.forms(last, (0, 0)):
                yield 1, (f[0] * m,) * p, functools.partial(iter, (f,))
        elif last:
            sub = self.listing(last - 1)
            for prefix, tail, start in self.necklaces(last, (e, 0)):
                start = start or 0
                sums = [sub[i][2] for i in prefix]
                sums.append(sub[tail[start]][2])
                yield len(tail) - start, sums, functools.partial(self.word_reps, prefix, tail, start)

    def head_reps(self, idx: Tuple[int, ...], want: Tuple[int, int]):
        """The representatives head + f, head the forms idx of the parts
        but the last, f the last part's forms with (exponent, residue) = want."""
        head = tuple(x for k, i in enumerate(idx) for x in self.listed[self.levels[k]][i][0])
        last = self.levels[-1]
        if not last:
            yield head + (want[1],)
            return
        for f, _, _ in self.forms(last, want):
            yield head + f

    def word_reps(self, prefix: Tuple[int, ...], tail: Sequence[int], start: int):
        """The one-block representatives of the words prefix + (i,), i in
        tail[start:]."""
        sub = self.listed[self.levels[0] - 1]
        head = tuple(x for i in prefix for x in sub[i][0])
        for i in itertools.islice(tail, start, None):
            yield head + sub[i][0]


def _block_orbit(block: Tuple[int, ...], p: int) -> List[Tuple[int, ...]]:
    """The orbit of a block of size p^r under P_(p^r), the wreath product
    of P_(p^(r-1)) with the rotation of the p sub-blocks: the union over
    the rotations of the product of the sub-blocks' orbits (the recursion
    permgroup.orbit_size counts)."""
    if len(block) == 1:
        return [block]
    m = len(block) // p
    subs = [_block_orbit(block[t * m:(t + 1) * m], p) for t in range(p)]
    return list({sum(words, ()) for k in range(p)
                 for words in itertools.product(*(subs[k:] + subs[:k]))})


def _orbit_elements(rep: Tuple[int, ...], levels: List[int], p: int) -> List[Tuple[int, ...]]:
    """The P_n-orbit of rep, n = len(rep), listed from its parts, no group
    built: P_n is the product of its parts' groups, so the orbit is the
    product of the parts' orbits."""
    parts, pos = [], 0
    for r in levels:
        parts.append(_block_orbit(rep[pos:pos + p ** r], p))
        pos += p ** r
    return [sum(words, ()) for words in itertools.product(*parts)]


def orbit_representatives(group: PermGroupSpec, q: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """(size, least element) of each nonzero orbit of group, a Sylow
    subgroup, on the zero-sum lattice mod q, in (size, representative)
    order, without listing the lattice: the runs of _Stream, unrolled."""
    p, cap = group.p, group.order_exponent
    levels = _levels(group.n, p)
    stream = _Stream(p, q, levels, _needs(levels, cap), _counts(p, q, levels, cap + 1)[0])
    for e in range(cap + 1):
        for _, _, reps in stream.runs(e):
            for rep in reps():
                if e or any(rep):
                    yield p ** e, rep


def count_orbits(group: PermGroupSpec, q: int) -> int:
    """The number of nonzero orbits of group, a Sylow subgroup, on the
    zero-sum lattice mod q, a power of p, without listing them: the layout
    table of _counts with one exponent row, at residue 0, less the zero
    orbit."""
    levels = _levels(group.n, group.p)
    return _counts(group.p, q, levels, 0)[1] - 1


def _class_fold(p: int, levels: List[int]) -> Tuple[Callable[[Sequence[int]], Tuple[int, ...]],
                                                     int]:
    """(fold, dim C): the class of coinvariant_class as a function of the
    sums it reads, the p sub-block sums of one block, or else the part sums
    of every part but the last."""
    if len(levels) == 1 and levels[0]:
        return (lambda sums: (sum(map(mul, range(p), sums)) % p,)), 1
    return (lambda sums: tuple([s % p for s in sums])), len(levels) - 1


def coinvariant_class(
    group: PermGroupSpec,
) -> Tuple[Callable[[Sequence[int]], Tuple[int, ...]], int]:
    """(f, dim C): the linear map f from V = X_n / p X_n onto the
    coinvariants C = V / IV = F_p^(dim C), I the augmentation ideal of
    F_p[P_n], P_n = group, read off the entries of any lift of a vector of V.

    The parts of the layout are the fixed points (the leading n mod p
    positions) and the blocks.  With two or more parts, f(v) is the part
    sums mod p of every part but the last; with one block, n = p^r, it is
    sum_t t S_t(v) mod p, S_t the sum over the t-th sub-block of size
    p^(r-1); at n = 1, V = 0 and f(v) = ().  f reads v only through those
    sums (_class_fold), and the search reads the same sums off the forms.

    IV lies in ker f.  Every g in P_n maps each part onto itself, so it
    fixes every part sum.  On one block, g permutes the p sub-blocks by a
    rotation t -> t + k, so f(g v) - f(v) = k sum_t S_t(v), which is 0 on
    the zero-sum vectors.

    dim C is the dimension of f's image, so ker f = IV and f induces
    C = F_p^(dim C).  Apply H_0(P_n, -) to 0 -> V -> F_p^n -> F_p -> 0:

        H_1(F_p^n) -> H_1(F_p) -> C -> H_0(F_p^n) -> F_p -> 0.

    By Shapiro's lemma H_0(F_p^n) = F_p^(#parts), mapped onto F_p by the
    sum, and H_1(F_p^n) -> H_1(F_p) sums the corestrictions from the point
    stabilizers' abelianizations mod p to P_n's: the product over the
    blocks of p^r points of C_p^r, one C_p per level.  A fixed point's
    stabilizer is P_n.  A point of a block has a stabilizer holding every
    other block's factor and, in its own block, the whole level below on
    another sub-block, but no rotation of the top level.  So with two or
    more parts the images cover P_n's and dim C = #parts - 1; on one block
    they miss the top level's C_p alone and dim C = 1.  f reaches both:
    e_x - e_y, x in some part and y in the last, is a unit vector of the
    image, and on one block f(a[1, 1 + p^(r-1)]) = -1.
    """
    p, n = group.p, group.n
    levels = _levels(n, p)
    fold, dim = _class_fold(p, levels)
    if len(levels) == 1 and levels[0]:
        cuts = [(t * n // p, (t + 1) * n // p) for t in range(p)]
    else:
        ends = list(itertools.accumulate((p ** r for r in levels), initial=0))
        cuts = list(zip(ends, ends[1:]))[:-1]
    return (lambda v: fold([sum(v[lo:hi]) for lo, hi in cuts])), dim


@functools.lru_cache(maxsize=8)
def _plan(n: int, p: int, q: int):
    """(levels, cap, needs, tables, (first, skipped), zero-sum orbits) of a
    search, after check_search's refusals of p, n and q.  On one block,
    first is the first exponent that holds an orbit of nonzero class, and
    skipped counts the orbits below it; with several parts both are 0.

    None when the search's work passes MAX_WITNESS_ENTRIES: the witness
    bound, witness_size(n, p) weights of n entries; the entries of the
    forms the stream lists, each listed level's forms up to its exponent,
    read off the level tables level by level, so that no table is built
    past the budget; and the runs the greedy may step over, on one block at
    most one per orbit of exponent at most cap, with several parts one per
    head of the parts but the last at each exponent up to cap it fits."""
    if prime_power_root(p) != p:
        raise BoundsError(f"p={p} is not a prime")
    if n < 1:
        raise BoundsError(f"n must be positive, got {n}")
    if prime_power_root(q) != p:
        raise BoundsError(f"q={q} is not a power of p={p}")
    if n == 1:  # the lattice is {0}: no orbit, and nothing to list
        return [0], -1, {}, [], (0, 0), 1
    size = witness_size(n, p)
    work = size * n
    if work > MAX_WITNESS_ENTRIES:  # before anything is sized by n
        return None
    cap = _exponent_cap(size, p)
    levels = _levels(n, p)
    need = _needs(levels, cap)
    listed = max([levels[-1] - 1] + levels[:-1])
    # one block of level R >= 2 is counted by class from level R - 1
    block = levels[0] if len(levels) == 1 and levels[0] > 1 else 0
    tables = []
    for r, (g, counts) in zip(range(max(levels) + (not block)), _level_counts(p, q, cap + 1)):
        tables.append((g, counts))
        if 1 <= r <= listed:
            work += p ** r * q // g * sum(c for (e, _), c in counts.items() if e <= need[r])
            if work > MAX_WITNESS_ENTRIES:
                return None
    if len(levels) > 1:  # one run per head of the other parts, at each exponent it fits
        heads: Table = (1, {(0, 0): 1})
        for r in levels[:-1]:  # the heads by exponent, of every sum: a table over Z/1
            g, counts = tables[r]
            merged: Dict[Tuple[int, int], int] = {}
            for (e, _), count in counts.items():
                merged[e, 0] = merged.get((e, 0), 0) + q // g * count
            heads = _product((1, merged), heads, 1, cap + 1)
        work += sum(count * (cap + 1 - e) for (e, _), count in heads[1].items() if e <= cap)
        skip, total = (0, 0), _zero_sums(tables, levels, q)
    else:  # one block: at most one nonempty run per orbit
        if block:
            orbits, moving = _class_counts(tables[-1], p, q, cap + 1)
        else:
            counts = tables[levels[0]][1]
            orbits = [counts.get((e, 0), 0) for e in range(cap + 2)]
            # a block of level 1: its orbits of exponent 0 are the constant
            # blocks (v, ..., v), of class v p (p - 1) / 2, nonzero only at
            # p = 2, v = q / 2 odd, that is q = 2; (0, ..., 0, 1, -1) has
            # exponent 1 and class -1
            moving = [int(q == 2), 1]
        # dim C = 1: the greedy keeps the first orbit of nonzero class, so
        # it starts at the first exponent that holds one
        first = next((e for e, x in enumerate(moving[:cap + 1]) if x), cap + 1)
        skip = first, sum(orbits[:first])
        work += sum(orbits[:cap + 1])
        total = sum(orbits)
    if work > MAX_WITNESS_ENTRIES:
        return None
    return levels, cap, need, tables, skip, total


def check_search(n: int, p: int, q: int, exponent: Optional[str] = None):
    """Refuse a search before anything is built, in this order: p not a
    prime; n < 1; q not a power of p; a search whose work (_plan) passes
    MAX_WITNESS_ENTRIES, written as q^(n-1), or as q^exponent.  Returns the
    plan the search reads."""
    plan = _plan(n, p, q)
    if plan is None:
        raise BoundsError(f"search space q^(n-1) = {q}^{exponent or n - 1} too large")
    return plan


def min_invariant_generating_size(n: int, p: int, q: int) -> SearchResult:
    """Exact minimum size of an invariant generating subset of the zero-sum
    lattice mod q, found by the greedy over the coinvariants.

    The union of orbits with representatives v_1, ..., v_k spans the
    submodule W of V generated by them, and by Nakayama W = V iff W + IV =
    V, that is iff the images of the v_i span the coinvariants C = V / IV.
    Generating mod q is generating mod p, again by Nakayama.  So the minimum
    is a minimum-weight basis of the linear matroid of the orbits' images in
    C, weighted by orbit size, and the greedy in (size, representative)
    order finds it (Edmonds 1971).  Its k-th orbit comes no later in that
    order than the k-th orbit of any other basis (Gale), so among the
    optimal unions its sorted orbit indices are lexicographically least: it
    is the first optimal union in canonical inclusion order.  An orbit's
    image in C is that of its first element, since g v - v lies in IV, so
    its class (coinvariant_class) decides it.

    The greedy takes no orbit of exponent past cap, the largest e with p^e
    <= witness_size(n, p).  The paper's Lambda (constructions.build_plan)
    generates X_n and is invariant under P_n: case (a)'s fan leaves the
    fixed point 1, case (b)'s chain is closed under the p-cycle, and cases
    (c) and (d) are unions of orbits.  So Lambda reduced mod q is an
    invariant generating set of at most witness_size(n, p) weights, a union
    of orbits of at most that size whose classes span C and so hold a
    basis.  By Gale the k-th orbit of the greedy's basis is no larger than
    the k-th of that basis, so its largest is no larger than
    witness_size(n, p), and the greedy stops at the orbit that fills its
    basis.  So the stream stops at cap, and a basis still short there
    cannot happen.

    The greedy steps over the stream's runs, not its orbits: a run's orbits
    share their class, so once its first orbit is examined the rest lie in
    the span and are counted.  On one block dim C = 1 and the greedy keeps
    the first orbit of nonzero class, so the exponents below the first that
    holds one (_class_counts, or in closed form on a block of level 1) are
    one count, and are not walked.  Only
    a kept orbit's representative and elements are built, the elements as
    the product over the parts of the union over the rotations of the
    sub-blocks' orbits (_orbit_elements), so no Sylow subgroup is built and
    no closure is run.  Each nonzero
    orbit still counts once in nodes_explored, as the orbit-by-orbit greedy
    examined it.  The witness is certified once by spans, which decides a
    mod-q set by its F_p rank, the predicate the naive oracles use.
    """
    levels, cap, need, tables, (first, skipped), total = check_search(n, p, q)
    start = time.perf_counter()
    spec = LatticeSpec(n, q)
    fold, target = _class_fold(p, levels)
    stream = _Stream(p, q, levels, need, tables)
    # the orbits below exponent first are one count, the zero orbit, first
    # of all, left out
    examined = skipped - 1 if target else 0
    basis: Dict[int, Tuple[int, ...]] = {}
    chosen: List[List[Tuple[int, ...]]] = []
    runs = itertools.chain.from_iterable(map(stream.runs, range(first, cap + 1)))
    for count, sums, reps in runs:
        image = fold(sums)
        if any(image):  # a class in the span cannot raise the rank
            grown = echelon_mod_p([image], p, target, basis)
            if len(grown) > len(basis):
                basis = grown
                chosen.append(_orbit_elements(next(reps()), levels, p))
                if len(basis) == target:
                    examined += 1
                    break
        examined += count
    if len(basis) < target:
        # cannot happen: the classes of Lambda mod q span C below the cap
        raise BoundsError("coinvariants not spanned by the orbits below the cap")

    witness = WeightSet.of([w for o in chosen for w in o], spec)
    if not spans(witness):
        # cannot happen: the classes span C (Nakayama)
        raise BoundsError("coinvariants spanned but the witness does not generate")
    return SearchResult(
        minimum=len(witness),
        witness=witness,
        nodes_explored=examined,
        orbit_count=total - 1,
        elapsed=time.perf_counter() - start,
    )


def naive_min_invariant_generating_size(n: int, p: int, q: int) -> Tuple[int, WeightSet]:
    """Independent oracle: exhaustive enumeration of invariant unions of
    orbits, smallest generating union wins.  No pruning beyond feasibility."""
    spec = LatticeSpec(n, q)
    orbits = _nonzero_orbits(spec, p)
    if len(orbits) > 20:
        raise BoundsError(f"naive enumeration infeasible: {len(orbits)} orbits")
    sizes = [len(o) for o in orbits]
    best = None
    for k in range(1, len(orbits) + 1):
        for combo in itertools.combinations(range(len(orbits)), k):
            size = sum(map(sizes.__getitem__, combo))
            if best is not None and size >= best[0]:
                continue
            ws = WeightSet.of([w for i in combo for w in orbits[i].elements], spec)
            if spans(ws):  # smaller than best, by the test above
                best = (size, ws)
    if best is None:
        raise BoundsError("no invariant generating subset exists")
    return best


def naive_min_by_subsets(n: int, p: int, q: int) -> int:
    """Fully naive oracle: every subset of the lattice, filtered to invariant
    and generating.  Only feasible for lattices with at most ~16 elements."""
    spec = LatticeSpec(n, q)
    group = sylow_subgroup(n, p)
    elements = lattice_elements(spec)
    if len(elements) > 16:
        raise BoundsError("subset enumeration infeasible")
    best = None
    for mask in range(1, 1 << len(elements)):
        subset = [elements[i] for i in range(len(elements)) if mask >> i & 1]
        if best is not None and len(subset) >= best:
            continue
        subset_set = set(subset)
        if any(act(g, w) not in subset_set for g in group.generators for w in subset):
            continue
        if spans(WeightSet.of(subset, spec)):
            best = len(subset)
    if best is None:
        raise BoundsError("no invariant generating subset exists")
    return best


def predicted_bound(n: int, p: int, q: int) -> dict:
    """The applicable published lower bound and its hypothesis status."""
    if prime_power_root(p) != p:
        raise BoundsError(f"p={p} is not a prime")
    e_q = vp(q, p)
    bound = witness_size(n, p)  # before case_of: its vp(n, p) refuses n = 0
    if case_of(n, p) in ("b", "c"):
        source = "p-power bound (minimal invariant generating sets in X_{p^r})"
        within = e_q >= (2 if p == 2 else 1)
        note = "" if within else "outside stated hypothesis: q must be >= p^2 when p = 2"
    else:
        source = "composite-n bound p^e(n - p^e)"
        within = q == p
        note = "" if within else "outside stated hypothesis: composite-n bound assumes q = p"
    return {"bound": bound, "source": source, "within_hypothesis": within, "note": note}


def verify_lower_bound(n: int, p: int, q: int) -> dict:
    """Run the exact search, then read the bound; holds is False below it, in hypothesis or out."""
    result = min_invariant_generating_size(n, p, q)
    info = predicted_bound(n, p, q)
    report = {
        "n": n,
        "p": p,
        "q": q,
        "bound": info["bound"],
        "bound_source": info["source"],
        "within_hypothesis": info["within_hypothesis"],
        "minimum": result.minimum,
        "tight": result.minimum == info["bound"],
        "witness": result.witness.to_json(),
        "nodes_explored": result.nodes_explored,
        "orbit_count": result.orbit_count,
        "holds": result.minimum >= info["bound"],
    }
    if info["note"]:
        report["note"] = info["note"]
    return report
