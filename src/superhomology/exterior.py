"""The graded exterior algebra of a Lie algebra and its multivector bracket.

Two sign regimes live here and must not be confused:

* Inside a fixed level k, elements of the k-fold exterior power of the
  algebra are classical alternating wedges of the z-letters; a basis element
  is a strictly increasing index tuple and reordering a word of z-letters
  costs the sign of the permutation.

* Across levels, a level-k element carries super-degree (grade) k - 1, and
  the chain complex multiplies words of whole generators with the quotient
  rule X ^ Y = -(-1)^{xy} Y ^ X on grades x, y.  Even-grade generators
  square to zero; odd-grade generators commute and may repeat.

The bracket extending [.,.] from letters to multivectors sends a level-p and
a level-q element to level p + q - 1 via the double sum

    sum_{i,j} (-1)^{i+j} [a_i, b_j] ^ a[i] ^ b[j]

over the letters of decomposable arguments (a[i] omits the i-th letter).
It makes the direct sum of all levels a Z-graded Lie superalgebra.  The sum
is taken in ints, on one table of D c_ij^k over the ordered letter pairs, D
the lcm of the denominators of the c_ij^k (``_structure``, built once per
generator system, at its first bracket).  ``Fraction`` enters only with an
alias level's expansions and coordinates, and in the returned coefficients.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, lcm

from .algebra import AlgebraError, StructureConstants, format_rational


def wedge_basis(sc: StructureConstants, k: int) -> list[tuple[int, ...]]:
    """Index tuples i1 < ... < ik of the C(n, k) canonical level-k wedges, lex order."""
    n = sc.dim
    if not (1 <= k <= n):
        raise AlgebraError(f"level {k} out of range 1..{n}")
    return list(combinations(range(1, n + 1), k))


def sort_indices(seq: Iterable[int]) -> tuple[int, tuple[int, ...]] | None:
    """Sort a z-letter word ascending; return (permutation sign, tuple) or None on repeat."""
    out = list(seq)
    sign = 1
    # insertion sort counting inversions; words here have <= a few letters
    for i in range(1, len(out)):
        x = out[i]
        j = i - 1
        while j >= 0 and out[j] > x:
            out[j + 1] = out[j]
            sign = -sign
            j -= 1
        out[j + 1] = x
        if j >= 0 and out[j] == x:
            return None
    return sign, tuple(out)


class Multivector:
    """A rational combination of canonical wedges, homogeneous in level."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs=None):
        self.level = level
        self.coeffs: dict[tuple[int, ...], Fraction] = {}
        if coeffs:
            for idx, c in dict(coeffs).items():
                c = Fraction(c)
                if c:
                    if len(idx) != level:
                        raise AlgebraError(f"index tuple {idx} is not level {level}")
                    self.coeffs[tuple(idx)] = c

    @classmethod
    def basis(cls, indices: Sequence[int]) -> "Multivector":
        indices = tuple(indices)
        return cls(len(indices), {indices: Fraction(1)})

    def __eq__(self, other):
        return (isinstance(other, Multivector)
                and self.coeffs == other.coeffs
                and (self.level == other.level or not self.coeffs))

    def __repr__(self):
        return " + ".join(f"{format_rational(c)}*z" + "^z".join(map(str, idx))
                          for idx, c in sorted(self.coeffs.items())) or "0"


def _structure(sc: StructureConstants) -> tuple[int, dict[tuple[int, int], tuple]]:
    """(D, {(i, j): ((D c_ij^k, k), ...)}) on the letter pairs, D the lcm of the denominators."""
    scale, table = lcm(*(c.denominator for vec in sc.entries.values() for c in vec)), {}
    for (i, j), vec in sc.entries.items():
        table[i, j] = tuple((c.numerator * (scale // c.denominator), k)
                            for k, c in enumerate(vec, 1) if c)
        table[j, i] = tuple((-c, k) for c, k in table[i, j])
    return scale, table


def _bracket(table: dict, a: dict, b: dict) -> dict[tuple[int, ...], int | Fraction]:
    """D times the bracket of a and b, {canonical wedge: coefficient}, by the double sum over
    ``table`` (``_structure``); ints stay ints, and no zero is kept."""
    acc: dict = {}
    for s, cs in a.items():
        for t, ct in b.items():
            for ipos, zi in enumerate(s):
                rest_s = s[:ipos] + s[ipos + 1:]
                for jpos, zj in enumerate(t):
                    rest = rest_s + t[:jpos] + t[jpos + 1:]
                    f = -cs * ct if (ipos + jpos) % 2 else cs * ct  # (-1)^{(i+1)+(j+1)}
                    for c, k in table.get((zi, zj), ()):
                        norm = sort_indices((k,) + rest)
                        if norm is not None:
                            acc[norm[1]] = acc.get(norm[1], 0) + norm[0] * c * f
    return {idx: v for idx, v in acc.items() if v}


def schouten(sc: StructureConstants, a: Multivector, b: Multivector) -> Multivector:
    """Bracket of two multivectors by the double sum (module docstring); level p, q in gives
    level p + q - 1 out, and level-0 arguments are not part of its domain."""
    if a.level < 1 or b.level < 1:
        raise AlgebraError("bracket needs level >= 1 arguments")
    scale, table = _structure(sc)
    out = Multivector(a.level + b.level - 1)
    out.coeffs = {idx: v / scale for idx, v in _bracket(table, a.coeffs, b.coeffs).items()}
    return out


def _reduce(rows: list, v: list) -> list:
    """v less its parts along the echelon ``rows``, [(pivot, row)]: zero at every pivot."""
    for p, r in rows:
        if v[p]:
            f = v[p] / r[p]
            v = [a - f * b for a, b in zip(v, r)]
    return v


def _grow(rows: list, v: list) -> bool:
    """Add v to the echelon ``rows`` unless it lies in their span; say so."""
    v = _reduce(rows, v)
    p = next((i for i, x in enumerate(v) if x), None)
    if p is not None:
        rows.append((p, v))
    return p is not None


class Generator:
    """One generator of the superalgebra: a named basis element of some level."""

    __slots__ = ("index", "name", "level", "grade", "expansion")

    def __init__(self, index: int, name: str, level: int, expansion: Multivector):
        self.index = index
        self.name = name
        self.level = level
        self.grade = level - 1
        self.expansion = expansion

    @property
    def parity(self) -> int:
        return self.grade % 2

    def __repr__(self):
        return f"Generator({self.name})"


def _invert(expansions: dict[int, Multivector],
            order: list[tuple[int, ...]]) -> dict[tuple[int, ...], dict[int, Fraction]]:
    """Canonical wedge -> {generator id: coefficient}, inverting an alias level's expansions.

    Each expansion enters the echelon tagged with its generator (a unit vector after its
    coordinates); a canonical wedge reduced to zero against them leaves minus its
    coordinates in the tags.
    """
    size, rows = len(order), []
    units = [[Fraction(r == c) for c in range(size)] for r in range(size)]
    for c, mv in enumerate(expansions.values()):
        _grow(rows, [mv.coeffs.get(idx, Fraction(0)) for idx in order] + units[c])
        if rows[-1][0] >= size:  # its coordinates reduced to zero
            raise AlgebraError("alias basis is not invertible")
    zero = [Fraction(0)] * size
    return {idx: {g: -t for g, t in zip(expansions, _reduce(rows, units[r] + zero)[size:]) if t}
            for r, idx in enumerate(order)}


# Generators are built eagerly, 2^dim - 1 of them, and every chain monomial
# holds exponent tuples over all of them.  On a 2-core host, abelian
# algebras read with --file ran `table --wmax 0` in 3-4 s at dim 12, 11-12 s
# (370 MB) at dim 13 and 36 s at dim 14; dim 40 ran 61 s and died with a
# MemoryError under a 3 GB address-space limit.  So a larger dim is refused
# before any generator is built.
MAX_DIM = 12  # 4,095 generators


class GeneratorSystem:
    """All generators of the superalgebra built on a Lie algebra.

    Levels with odd k give even-grade generators, levels with even k give
    odd-grade ones.  The canonical order is: even-grade generators by
    (level, index tuple), then odd-grade generators the same way.  An alias
    basis may replace the canonical basis of a level by an invertible set of
    named combinations (the printed tables use per-case level-2 bases).
    """

    def __init__(self, sc: StructureConstants,
                 level_bases: dict[int, list[tuple[str, Multivector]]] | None = None):
        self.sc = sc
        n = sc.dim
        if n > MAX_DIM:
            raise AlgebraError(f"dim {n} needs 2^{n} - 1 generators; at most dim {MAX_DIM} "
                               f"({2 ** MAX_DIM - 1} generators) is supported")
        level_bases = level_bases or {}
        for k in level_bases:
            if k not in range(1, n + 1):
                raise AlgebraError(f"alias basis at level {k!r}: levels are 1..{n}")
        per_level: dict[int, list[tuple[str, Multivector]]] = {}
        for k in range(1, n + 1):
            if k in level_bases:
                basis = list(level_bases[k])
                if len(basis) != comb(n, k):
                    raise AlgebraError(
                        f"alias basis at level {k} has {len(basis)} elements, want {comb(n, k)}")
                for _, mv in basis:
                    if mv.level != k:
                        raise AlgebraError(f"alias element at level {k} has level {mv.level}")
                per_level[k] = basis
            else:
                per_level[k] = [("", Multivector.basis(e)) for e in wedge_basis(sc, k)]

        self.generators: list[Generator] = []
        self.level_to_gens: dict[int, list[int]] = {}
        for parity, letter in ((0, "z"), (1, "u")):
            count = 0  # unnamed generators are numbered within their parity
            for k in range(1 + parity, n + 1, 2):
                ids = []
                for name, mv in per_level[k]:
                    idx = len(self.generators)
                    count += 1
                    self.generators.append(Generator(idx, name or f"{letter}{count}", k, mv))
                    ids.append(idx)
                self.level_to_gens[k] = ids
        self.even_ids = [g.index for g in self.generators if g.parity == 0]
        self.odd_ids = [g.index for g in self.generators if g.parity == 1]
        self.grades = tuple(g.grade for g in self.generators)
        self.count = len(self.generators)

        # per level, canonical wedge -> {generator id: coefficient}: the identity on a
        # canonical level, the inverse change of basis on an alias one
        self._coords: dict[int, dict[tuple[int, ...], dict[int, Fraction | int]]] = {}
        for k, gens in self.level_to_gens.items():
            if k in level_bases:
                self._coords[k] = _invert({g: self.generators[g].expansion for g in gens},
                                          wedge_basis(sc, k))
            else:
                self._coords[k] = {idx: {g: 1} for idx, g in zip(wedge_basis(sc, k), gens)}
        self._pair_cache: dict[tuple[int, int], tuple[tuple[Fraction, int], ...]] = {}
        # owned by int_brackets: w -> (D_w, int bracket table)
        self._int_cache: dict[int, tuple[int, dict[tuple[int, int], tuple[tuple[int, int], ...]]]] = {}
        # owned by chain._tables: coords -> (bound, suffix tables, choices, view, packing)
        self._count_cache: dict[tuple, tuple[int, list[dict], dict, dict, tuple]] = {}
        # 1 at each split letter (its first ids) of a system ``ranked`` returns, () on any other
        self.split: tuple[int, ...] = ()
        # e's torus weight where ``ranked`` splits an sl2 off too (``_sl2_weight``), else 0
        self.sl2 = 0

    @property
    def dim(self) -> int:
        return self.sc.dim

    @property
    def grading(self) -> tuple[tuple[int, ...], ...]:
        """The coordinates of the graded count tables: ``torus``, then ``split`` if any.  Those
        tables leave the split letters out (``chain._tables``), so ``split`` is 0 on every key,
        and a walk cannot step a split letter."""
        return self.torus + (self.split,) if self.split else self.torus

    @cached_property
    def ranked(self) -> "GeneratorSystem":
        """The system ``homology.betti_table`` ranks: ``self``, or one whose ``split``
        letters span C, a complement of Z(g) n [g, g] in the center Z(g).  That one is built
        on the structure constants in the level-1 basis C, then [g, g], then the rest, each
        preferring given vectors, so that its split letters are its first c level-1 ids and
        every level is a wedge of the adapted basis.  (Adapting level 1 alone, as an alias
        level over the given constants, keeps the tables but fills in seven to nine times
        as many entries on gl2.)  Its constants are B^-1 [b_i, b_j], with B^-1
        from ``_invert`` of the adapted vectors b_i.

        Where g = Z(g) + [g, g] with [g, g] of dim 3 (then [g, g] = [[g, g], [g, g]] is
        perfect, so a form of sl2), the system is built so too, and when ``_sl2_weight``
        finds the torus of its h, every level-1 letter is split and ``sl2`` is e's torus
        weight (see ``homology``: Hochschild-Serre)."""
        if self.split:
            return self
        n, brackets, rows, gg = self.dim, [list(v) for v in self.sc.entries.values()], [], []
        units = [[Fraction(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):  # echelon of (ad e_i, e_i): the rows with no ad part span Z(g)
            _grow(rows, [c for j in range(n) for c in self.sc.bracket(i + 1, j + 1)] + units[i])
        center = [r[n * n:] for p, r in rows if p >= n * n]
        for v in brackets:
            _grow(gg, v)
        rows = list(gg)
        split = [z for z in center if _grow(rows, z)]
        reductive = len(gg) == 3 and len(split) == len(center) == n - 3
        # with no split letter, an sl2 is rebuilt only with a torus (ranked has the same
        # constants then: its basis is the given one)
        if not split and not (reductive and self.torus):
            return self
        rows = []
        basis = [{(k + 1,): c for k, c in enumerate(v) if c} for v in split + [
            u for u in units + brackets if not any(_reduce(gg, u))] + units if _grow(rows, v)]
        inverse, (scale, table) = _invert({x: Multivector(1, v) for x, v in enumerate(basis)},
                                          wedge_basis(self.sc, 1)), self._letters
        entries = {(i + 1, j + 1): _bracket(table, basis[i], basis[j])
                   for i, j in combinations(range(n), 2)}  # D [b_i, b_j] on the given letters
        ranked = GeneratorSystem(StructureConstants(n, {pair: [
            Fraction(sum(inverse[idx].get(x, 0) * v for idx, v in vec.items()), scale)
            for x in range(n)] for pair, vec in entries.items()}, self.sc.name))
        ranked.sl2 = _sl2_weight(ranked) if reductive else 0
        if not split and not ranked.sl2:
            return self
        ranked.split = tuple(int(x < (n if ranked.sl2 else len(split))) for x in range(self.count))
        return ranked

    @cached_property
    def torus(self) -> tuple[tuple[int, ...], ...]:
        """Torus weights of the generators: one tuple over generator ids per coordinate.

        A level-1 generator x gives a coordinate when [x, g] = c_g g for every
        generator g, with rational c_g not all zero; the c_g are scaled to
        integers by the lcm of their denominators.  Two such generators
        commute ([x, y] = c_y y = -c'_x x forces both to 0), so together
        they grade the chain spaces; a coordinate in the span of those kept
        before it (a central x gives the zero one) is dropped.  Empty when no
        generator gives a coordinate.  An x made of central letters (in no
        stored bracket of the structure constants) gives the zero derivation,
        so it is skipped before any bracket is taken.
        Computed on first use, not at construction.
        """
        bracketed = {i for pair in self.sc.entries for i in pair}
        coords: list[tuple[int, ...]] = []
        independent: list = []  # echelon of the kept coordinates
        for x in self.level_to_gens[1]:
            if not any(i in bracketed for (i,) in self.generators[x].expansion.coeffs):
                continue
            eigen = []
            for g in range(self.count):
                bracket = self.pair_bracket(x, g)
                if not bracket:
                    eigen.append(Fraction(0))
                elif len(bracket) == 1 and bracket[0][1] == g:
                    eigen.append(bracket[0][0])
                else:
                    break
            else:
                if _grow(independent, eigen):
                    scale = lcm(*(c.denominator for c in eigen))
                    coords.append(tuple(int(c * scale) for c in eigen))
        return tuple(coords)

    @cached_property
    def mirror(self) -> tuple[int, ...]:
        """Mirror weights of the generators, one per id, or ().  Sought (``_mirror_weights``)
        only on a system ``betti_table`` ranks as it is (``ranked`` is itself) with no torus
        and no split letter; a letter's weight is that of every wedge of its expansion.
        Computed on first use, not at construction."""
        if self.torus or self.split or self.ranked is not self:
            return ()
        return _mirror_weights(self)

    @cached_property
    def _letters(self) -> tuple[int, dict]:
        """``_structure`` of the structure constants, built on the first bracket."""
        return _structure(self.sc)

    def pair_bracket(self, gi: int, gj: int) -> tuple[tuple[Fraction, int], ...]:
        """[generator, generator] as ((coefficient, generator id), ...) by id, memoized."""
        if (key := (gi, gj)) in self._pair_cache:
            return self._pair_cache[key]
        scale, table = self._letters
        a, b = ({idx: c.numerator if c.denominator == 1 else c
                 for idx, c in self.generators[g].expansion.coeffs.items()} for g in key)
        coords, out = self._coords.get(sum(self.generators[g].level for g in key) - 1), {}
        for idx, v in _bracket(table, a, b).items():
            for g, c in coords[idx].items():
                out[g] = out.get(g, 0) + c * v
        value = tuple((Fraction(c, scale), g) for g, c in sorted(out.items()) if c)
        self._pair_cache[key] = value
        return value

    def int_brackets(self, w: int) -> tuple[int, dict[tuple[int, int], tuple[tuple[int, int], ...]]]:
        """(D_w, {(i, j): ((D_w * c, k), ...)}) for the pairs a weight-w boundary can bracket.

        Those are the pairs i <= j of letters a ranked piece can hold (no split
        letter), with grade_i + grade_j <= min(w, dim - 1) (levels p and q bracket
        to level p + q - 1), leaving out an even generator paired with itself
        (even letters never repeat).  D_w is the lcm of the denominators of their
        bracket coefficients, so every entry is an int; it is 1 for an integral
        algebra.  Zero brackets are left out of the table.  Computed once per weight.
        """
        cached = self._int_cache.get(w)
        if cached is not None:
            return cached
        grades, top = self.grades, min(w, self.dim - 1)
        # ids of grade <= b, for every budget b <= top; the split letters are the first ids
        up_to = [[g for g in range(sum(self.split), self.count) if grades[g] <= b]
                 for b in range(top + 1)]
        brackets = {}
        for i in (up_to[top] if top >= 0 else ()):
            for j in up_to[top - grades[i]]:
                if j > i or (j == i and grades[i] % 2):
                    bracket = self.pair_bracket(i, j)
                    if bracket:
                        brackets[i, j] = bracket
        scale = lcm(*(c.denominator for bracket in brackets.values() for c, _ in bracket))
        table = {pair: tuple((c.numerator * (scale // c.denominator), k) for c, k in bracket)
                 for pair, bracket in brackets.items()}
        self._int_cache[w] = scale, table
        return scale, table


def _sl2_weight(gs: GeneratorSystem) -> int:
    """e's torus weight alpha on a system whose level 1 is central letters and an sl2 (in
    that order, as ``ranked`` builds it), or 0 when its torus is empty.

    Such a torus has one coordinate, from h: only a semisimple element gives one, and the
    Cartan subalgebra of sl2 is a line.  e and f weigh +-alpha, h and the central letters 0.
    """
    return max(map(abs, gs.torus[0][:gs.dim])) if gs.torus else 0


def _mirror_weights(gs: GeneratorSystem) -> tuple[int, ...]:
    """The weight of each generator under d = e_i* - e_j* for the first letters i < j of g
    where d is a derivation, a swap of e_i and e_j with signs is an automorphism sigma, and
    every generator is a sum of wedges of one weight; () where no pair is.

    Then sigma d sigma^-1 = -d, and sigma, extended to every level and to the chain
    complex, carries its weight-t piece onto the weight -t piece (``homology``: the
    mirror).  d is a derivation when each nonzero c_ab^k has weight(a) + weight(b) =
    weight(k).  With pi the swap, sigma e_a = s_a e_pi(a) is an automorphism when every
    c_pi(a)pi(b)^pi(k) = s_a s_b s_k c_ab^k: the magnitudes must be equal, and the signs
    s = (-1)^x solve one GF(2) equation x_a + x_b + x_k = [the two differ] per nonzero
    c_ab^k, eliminated on bit masks.
    """
    n, constants = gs.dim, [(a, b, k, c) for (a, b), vec in gs.sc.entries.items()
                            for k, c in enumerate(vec, 1) if c]
    for i, j in combinations(range(1, n + 1), 2):
        weight = [0] * (n + 1)
        weight[i], weight[j] = 1, -1
        swap = list(range(n + 1))
        swap[i], swap[j] = j, i
        pivots: dict[int, tuple[int, int]] = {}  # GF(2) echelon: lowest bit -> (mask, rhs)
        for a, b, k, c in constants:
            image = gs.sc.bracket(swap[a], swap[b])[swap[k] - 1]
            if weight[a] + weight[b] != weight[k] or abs(image) != abs(c):
                break
            mask, rhs = (1 << a) ^ (1 << b) ^ (1 << k), int(image != c)
            while mask and (low := mask & -mask) in pivots:
                mask, rhs = mask ^ pivots[low][0], rhs ^ pivots[low][1]
            if mask:
                pivots[mask & -mask] = mask, rhs
            elif rhs:  # no signs solve it
                break
        else:
            weights = [{sum(map(weight.__getitem__, idx)) for idx in g.expansion.coeffs}
                       for g in gs.generators]
            if all(len(w) == 1 for w in weights):
                return tuple(w.pop() for w in weights)
    return ()


# ---------------------------------------------------------------------------
# Level-2 bases used by the printed multiplication tables.
# ---------------------------------------------------------------------------

def _mv2(pairs: dict[tuple[int, int], Fraction]) -> Multivector:
    return Multivector(2, pairs)


def paper_level2_basis(sc: StructureConstants) -> list[tuple[str, Multivector]]:
    """The per-case 2-vector basis each printed table fixes; keyed by catalog name.

    The scalings for the two-parameter family are read off the bound
    structure constants, so file-loaded copies with the same name work too.
    """
    name = sc.name
    one = Fraction(1)
    if name == "aff1":
        return [("u1", _mv2({(1, 2): one}))]
    if name == "heis3":
        return [("u1", _mv2({(2, 3): one})),
                ("u2", _mv2({(1, 3): -one})),
                ("u3", _mv2({(1, 2): one}))]
    if name == "g3d1n":
        return [("u1", _mv2({(1, 2): one})),
                ("u2", _mv2({(2, 3): one})),
                ("u3", _mv2({(1, 3): -one}))]
    if name == "g3d2":
        return [("u1", _mv2({(1, 2): one})),
                ("u2", _mv2({(1, 3): one})),
                ("u3", _mv2({(2, 3): one}))]
    if name == "g3d3":
        alpha = sc.bracket(2, 3)[0]
        beta = -sc.bracket(1, 3)[1]
        if not alpha or not beta:
            raise AlgebraError("g3d3 printed basis needs nonzero alpha and beta")
        return [("u1", _mv2({(2, 3): 1 / alpha})),
                ("u2", _mv2({(1, 3): Fraction(-1) / beta})),
                ("u3", _mv2({(1, 2): one}))]
    if name == "sl2_efh":
        return [("u1", _mv2({(1, 3): Fraction(1, 2)})),
                ("u2", _mv2({(2, 3): Fraction(-1, 2)})),
                ("u3", _mv2({(1, 2): one}))]
    raise AlgebraError(f"no printed-table basis for algebra {name!r}")


def generator_system(sc: StructureConstants, basis: str = "canonical") -> GeneratorSystem:
    """Build a generator system; ``basis`` is ``canonical`` or ``paper``."""
    if basis == "canonical":
        return GeneratorSystem(sc)
    if basis == "paper":
        return GeneratorSystem(sc, {2: paper_level2_basis(sc)})
    raise AlgebraError(f"unknown basis choice {basis!r} (want canonical or paper)")


# ---------------------------------------------------------------------------
# Pairwise bracket tables in the layout of the printed multiplication tables.
# ---------------------------------------------------------------------------

def _entry_text(coords: dict[str, Fraction]) -> str:
    if not coords:
        return "0"
    parts = []
    for name, c in coords.items():
        if c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{format_rational(c)}·{name}")
    return " + ".join(parts).replace("+ -", "- ")


# the printed tables hold at most this many entries: dim 9 holds 132,609, dim 10 527,873,
# and each dim costs 4-6 times the time of the one below
MAX_TABLE_ENTRIES = 200_000


def render_bracket_table(gs: GeneratorSystem) -> str:
    """Two text matrices: grade-0 rows x all generators, odd rows x (odd + higher even).

    Only the printed pairs are bracketed.  Raises :class:`AlgebraError`
    before any bracket is computed when the two hold more than
    ``MAX_TABLE_ENTRIES`` entries.
    """
    gens = gs.generators
    zero_rows = [i for i in gs.even_ids if gens[i].grade == 0]
    odd_cols = gs.odd_ids + [i for i in gs.even_ids if gens[i].grade > 0]
    entries = len(zero_rows) * len(gens) + len(gs.odd_ids) * len(odd_cols)
    if entries > MAX_TABLE_ENTRIES:
        raise AlgebraError(f"the bracket tables of dim {gs.dim} hold {entries} entries, "
                           f"more than {MAX_TABLE_ENTRIES}")

    def block(rows, cols):
        grid = [[""] + [gens[j].name for j in cols]]
        for i in rows:
            grid.append([gens[i].name] + [
                _entry_text({gens[k].name: c for c, k in gs.pair_bracket(i, j)}) for j in cols])
        widths = [max(len(row[i]) for row in grid) for i in range(len(cols) + 1)]
        lines = []
        for ri, row in enumerate(grid):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
            if ri == 0:
                lines.append("-" * (sum(widths) + 2 * len(widths) - 2))
        return "\n".join(lines)

    out = [block(zero_rows, range(len(gens)))]
    if gs.odd_ids:
        out.append("")
        out.append(block(gs.odd_ids, odd_cols))
    return "\n".join(out) + "\n"
