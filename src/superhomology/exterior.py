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
It makes the direct sum of all levels a Z-graded Lie superalgebra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, lcm
from typing import Iterable, Sequence

from .algebra import AlgebraError, StructureConstants, format_rational
from .ranklin import rank_rows


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

    @classmethod
    def letter(cls, i: int) -> "Multivector":
        return cls(1, {(i,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def scaled(self, c) -> "Multivector":
        c = Fraction(c)
        return Multivector(self.level, {k: v * c for k, v in self.coeffs.items()} if c else {})

    def __add__(self, other: "Multivector") -> "Multivector":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.level != other.level:
            raise AlgebraError("cannot add multivectors of different levels")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Multivector(self.level, out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __eq__(self, other):
        return (isinstance(other, Multivector)
                and self.coeffs == other.coeffs
                and (self.level == other.level or not self.coeffs))

    def wedge(self, other: "Multivector") -> "Multivector":
        """Classical exterior product (both factors are words of z-letters)."""
        out: dict[tuple[int, ...], Fraction] = {}
        for s, cs in self.coeffs.items():
            for t, ct in other.coeffs.items():
                norm = sort_indices(s + t)
                if norm is None:
                    continue
                sign, idx = norm
                v = out.get(idx, Fraction(0)) + sign * cs * ct
                if v:
                    out[idx] = v
                else:
                    out.pop(idx, None)
        return Multivector(self.level + other.level, out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for idx in sorted(self.coeffs):
            c = self.coeffs[idx]
            name = "z" + "^z".join(map(str, idx))
            parts.append(f"{format_rational(c)}*{name}")
        return " + ".join(parts)


def schouten(sc: StructureConstants, a: Multivector, b: Multivector) -> Multivector:
    """Bracket of two multivectors; level p, q in gives level p + q - 1 out.

    Bilinear extension of the double-sum formula on decomposables; the inner
    [a_i, b_j] is the Lie bracket of the algebra.  Level-0 arguments are not
    part of the bracket's domain.
    """
    if a.level < 1 or b.level < 1:
        raise AlgebraError("bracket needs level >= 1 arguments")
    out = Multivector(a.level + b.level - 1)
    acc: dict[tuple[int, ...], Fraction] = {}
    for s, cs in a.coeffs.items():
        for t, ct in b.coeffs.items():
            cst = cs * ct
            for ipos, zi in enumerate(s):
                rest_s = s[:ipos] + s[ipos + 1:]
                for jpos, zj in enumerate(t):
                    sign = -1 if (ipos + jpos) % 2 else 1  # (-1)^{(i+1)+(j+1)}
                    vec = sc.bracket(zi, zj)
                    if not any(vec):
                        continue
                    rest = rest_s + t[:jpos] + t[jpos + 1:]
                    for k, ck in enumerate(vec):
                        if not ck:
                            continue
                        norm = sort_indices((k + 1,) + rest)
                        if norm is None:
                            continue
                        psign, idx = norm
                        v = acc.get(idx, Fraction(0)) + sign * psign * ck * cst
                        if v:
                            acc[idx] = v
                        else:
                            acc.pop(idx, None)
    out.coeffs = acc
    return out


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
    """Canonical wedge -> {generator id: coefficient}, inverting an alias level's expansions."""
    size = len(order)
    row = {idx: r for r, idx in enumerate(order)}
    aug = [[Fraction(0)] * (2 * size) for _ in range(size)]
    for c, mv in enumerate(expansions.values()):
        for idx, v in mv.coeffs.items():
            aug[row[idx]][c] = v
        aug[c][size + c] = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            raise AlgebraError("alias basis is not invertible")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return {idx: {g: aug[pos][size + r] for pos, g in enumerate(expansions) if aug[pos][size + r]}
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
        # owned by chain._tables: coords -> (bound, suffix tables, exponent choices); no basis kept
        self._count_cache: dict[tuple, tuple[int, list[dict], dict]] = {}

    @property
    def dim(self) -> int:
        return self.sc.dim

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
                scale = lcm(*(c.denominator for c in eigen))
                coord = tuple(int(c * scale) for c in eigen)
                rows = [{g: t for g, t in enumerate(v) if t} for v in coords + [coord]]
                if rank_rows(rows).rank > len(coords):
                    coords.append(coord)
        return tuple(coords)

    def to_generator_coords(self, mv: Multivector) -> dict[int, Fraction]:
        """Express a multivector in the active basis of its level."""
        out: dict[int, Fraction] = {}
        for idx, c in mv.coeffs.items():
            for g, v in self._coords[mv.level][idx].items():
                out[g] = out.get(g, 0) + v * c
        return {g: v for g, v in out.items() if v}

    def pair_bracket(self, gi: int, gj: int) -> tuple[tuple[Fraction, int], ...]:
        """[generator, generator] as ((coefficient, generator id), ...) by id, memoized."""
        key = (gi, gj)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        a = self.generators[gi].expansion
        b = self.generators[gj].expansion
        coords = self.to_generator_coords(schouten(self.sc, a, b))
        value = tuple((c, g) for g, c in sorted(coords.items()))
        self._pair_cache[key] = value
        return value

    def int_brackets(self, w: int) -> tuple[int, dict[tuple[int, int], tuple[tuple[int, int], ...]]]:
        """(D_w, {(i, j): ((D_w * c, k), ...)}) for the pairs a weight-w boundary can bracket.

        Those are the pairs i <= j with grade_i + grade_j <= w, leaving out an
        even generator paired with itself (even letters never repeat).  D_w is
        the lcm of the denominators of their bracket coefficients, so every
        entry is an int; it is 1 for an integral algebra.  Zero brackets are
        left out of the table.  Computed once per weight.
        """
        cached = self._int_cache.get(w)
        if cached is not None:
            return cached
        grades = self.grades
        # ids of grade <= b, for every budget b <= w
        up_to = [[g for g, grade in enumerate(grades) if grade <= b] for b in range(w + 1)]
        brackets = {}
        for i in (up_to[w] if w >= 0 else ()):
            for j in up_to[w - grades[i]]:
                if j > i or (j == i and grades[i] % 2):
                    bracket = self.pair_bracket(i, j)
                    if bracket:
                        brackets[i, j] = bracket
        scale = lcm(*(c.denominator for bracket in brackets.values() for c, _ in bracket))
        table = {pair: tuple((c.numerator * (scale // c.denominator), k) for c, k in bracket)
                 for pair, bracket in brackets.items()}
        self._int_cache[w] = scale, table
        return scale, table


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

def bracket_table(gs: GeneratorSystem) -> dict[tuple[str, str], dict[str, Fraction]]:
    """Complete pairwise table {(row name, col name): {gen name: coeff}}."""
    table = {}
    for gi in gs.generators:
        for gj in gs.generators:
            coords = gs.pair_bracket(gi.index, gj.index)
            table[(gi.name, gj.name)] = {gs.generators[g].name: c for c, g in coords}
    return table


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


def render_bracket_table(gs: GeneratorSystem) -> str:
    """Two text matrices: grade-0 rows x all generators, odd rows x (odd + higher even)."""
    table = bracket_table(gs)
    names = [g.name for g in gs.generators]
    zero_rows = [gs.generators[i].name for i in gs.even_ids if gs.generators[i].grade == 0]
    odd_names = [gs.generators[i].name for i in gs.odd_ids]
    high_even = [gs.generators[i].name for i in gs.even_ids if gs.generators[i].grade > 0]

    def block(rows, cols):
        grid = [[""] + cols]
        for r in rows:
            grid.append([r] + [_entry_text(table[(r, c)]) for c in cols])
        widths = [max(len(row[i]) for row in grid) for i in range(len(cols) + 1)]
        lines = []
        for ri, row in enumerate(grid):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
            if ri == 0:
                lines.append("-" * (sum(widths) + 2 * len(widths) - 2))
        return "\n".join(lines)

    out = [block(zero_rows, names)]
    if odd_names:
        out.append("")
        out.append(block(odd_names, odd_names + high_even))
    return "\n".join(out) + "\n"
