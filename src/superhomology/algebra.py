"""Finite-dimensional Lie algebras given by structure constants.

A Lie algebra on generators z_1..z_n is stored as the exact rational
coefficients c_{ij}^k of [z_i, z_j] = sum_k c_{ij}^k z_k for i < j; the
bracket for j > i is the negation of the stored value.  Generator indices
are 1-based throughout the public surface.

The module also carries the algebra file format, the catalog of named
algebras used by the homology tables (2- and 3-dimensional families plus
gl(2)) written in that format, parameter substitution for families like the
one with [z_2, z_3] = alpha * z_2, and the Jacobi-identity check that guards
every construction.  Every coefficient in this package is an exact
``Fraction``, written as decimal-free ``"p/q"`` or ``"p"`` text in every file format.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Mapping
from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` (q > 0 after reduction), or an int, into a Fraction; a bool
    (an int to Python) or a float raises."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    s = str(text).strip()
    if not s or "." in s or "e" in s.lower():
        raise AlgebraError(f"not a decimal-free rational: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise AlgebraError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Inverse of :func:`parse_rational`; integers print without ``/1``."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class AlgebraError(ValueError):
    """Bad algebra description: parse failure, bad index, unbound parameter."""


class JacobiError(AlgebraError):
    """The bracket violates the Jacobi identity.

    ``violations`` is a list of ((i, j, k), residual) with the residual the
    exact coefficient vector of [[z_i,z_j],z_k] + cyclic.
    """

    def __init__(self, violations):
        self.violations = violations
        triples = ", ".join(str(t) for t, _ in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"Jacobi identity fails at triples {triples}{more}")


class CatalogError(AlgebraError):
    """Unknown catalog name or invalid parameter binding."""


class StructureConstants:
    """Bracket coefficients of a Lie algebra on a fixed basis.

    ``entries`` maps (i, j) with 1 <= i < j <= dim to a tuple of ``dim``
    Fractions.  Zero brackets are not stored.  Instances are immutable and
    hash-free value objects; use :meth:`bracket` for arbitrary index order.
    """

    __slots__ = ("dim", "entries", "name")

    def __init__(self, dim: int, entries: Mapping[tuple[int, int], Iterable[Fraction]],
                 name: str = ""):
        if dim < 1:
            raise AlgebraError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.name = name
        cleaned: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        for (i, j), coeffs in entries.items():
            if not (1 <= i < j <= dim):
                raise AlgebraError(f"bracket pair ({i}, {j}) out of range for dim {dim}")
            vec = tuple(Fraction(c) for c in coeffs)
            if len(vec) != dim:
                raise AlgebraError(f"bracket ({i}, {j}) has {len(vec)} coefficients, want {dim}")
            if any(vec):
                cleaned[(i, j)] = vec
        self.entries = cleaned

    def bracket(self, i: int, j: int) -> tuple[Fraction, ...]:
        """Coefficient vector of [z_i, z_j]; antisymmetry is structural."""
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise AlgebraError(f"generator index out of range: ({i}, {j})")
        if i == j:
            return (Fraction(0),) * self.dim
        if i < j:
            return self.entries.get((i, j), (Fraction(0),) * self.dim)
        vec = self.entries.get((j, i))
        if vec is None:
            return (Fraction(0),) * self.dim
        return tuple(-c for c in vec)

    def __eq__(self, other):
        return (isinstance(other, StructureConstants)
                and self.dim == other.dim and self.entries == other.entries)

    def __repr__(self):
        label = self.name or f"dim{self.dim}"
        return f"StructureConstants({label}, {len(self.entries)} brackets)"


def check_jacobi(sc: StructureConstants) -> list[tuple[tuple[int, int, int], tuple[Fraction, ...]]]:
    """All triples i < j < k where [[z_i,z_j],z_k] + cyclic != 0, with residuals.

    Only stored brackets are visited: [[z_a,z_b],z_c] is the sum over t of
    c_ab^t [z_t, z_c], so it needs a stored pair (a, b) and a stored pair of
    t and c.  A stored a < b and a third index c add that term to the triple
    sorted(a, b, c), whose cyclic sum holds [[z_a,z_b],z_c] itself unless
    a < c < b, where it holds [[z_b,z_a],z_c] instead.  The triples come out
    in lex order, each residual as the full coefficient vector.
    """
    n = sc.dim
    partners: dict[int, dict[int, tuple[Fraction, ...]]] = {}  # t -> {c: [z_t, z_c]}
    for (i, j), vec in sc.entries.items():
        partners.setdefault(i, {})[j] = vec
        partners.setdefault(j, {})[i] = tuple(-c for c in vec)
    residuals: dict[tuple[int, int, int], list[Fraction]] = {}
    for (a, b), inner in sc.entries.items():
        for t, ct in enumerate(inner, 1):
            if not ct:
                continue
            for c, outer in partners.get(t, {}).items():
                if c == a or c == b:
                    continue
                coeff = -ct if a < c < b else ct
                residual = residuals.setdefault(tuple(sorted((a, b, c))), [Fraction(0)] * n)
                for s, x in enumerate(outer):
                    if x:
                        residual[s] += coeff * x
    return [(triple, tuple(res)) for triple, res in sorted(residuals.items()) if any(res)]


def _parse_coefficient(value) -> tuple[Fraction, str | None]:
    """One term of a coefficient expression: rational, param, or coef*param."""
    if isinstance(value, dict):
        _known_keys(value, ("coef", "param"), f"coefficient {value!r}")
        coef = parse_rational(value.get("coef", "1"))
        param = value.get("param")
        if param is not None and not isinstance(param, str):
            raise AlgebraError(f"bad param reference: {value!r}")
        return coef, param
    if not isinstance(value, str):
        return parse_rational(value), None
    s = value.strip()
    try:
        return parse_rational(s), None
    except ValueError:
        pass
    sign, name = (Fraction(-1), s[1:].strip()) if s.startswith("-") else (Fraction(1), s)
    if not name.isidentifier():  # "2.0" or "1e3" would read as an unbound parameter
        raise AlgebraError(f"malformed number {value!r}: neither a rational nor a parameter name")
    return sign, name


def _known_keys(entry: dict, keys: tuple[str, ...], what: str) -> None:
    """Refuse a key outside ``keys``, which would otherwise be dropped unread."""
    for key in entry:
        if key not in keys:
            raise AlgebraError(f"{what}: unknown key {key!r} (known: {', '.join(keys)})")


def _list_field(doc: dict, key: str, kind: type, what: str) -> list:
    """``doc[key]`` (default empty), which must be a list of ``kind`` values."""
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        raise AlgebraError(f"algebra document field {key!r} must be a list of {what}, "
                           f"got {value!r}")
    return value


def _integer(value, what: str) -> int:
    """An int or its decimal text; a float or bool (which ``int()`` would cut) raises."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, int):
        raise AlgebraError(f"{what}, got {value!r}")
    return value


def parse_algebra_document(doc, bindings: Mapping[str, Fraction | str] | None = None
                           ) -> StructureConstants:
    """Validate an algebra document, bind its parameters and Jacobi-check the result.

    The whole document is checked before any binding: then every parameter
    must be bound (``Fraction`` or ``"p/q"`` text), no other name may be,
    and the parameters the constraints name must be nonzero.
    """
    if isinstance(doc, (str, bytes)):
        import json  # here, not at the top: a table never reads JSON text
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise AlgebraError(f"algebra document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise AlgebraError("algebra document must be a JSON object")
    _known_keys(doc, ("name", "dim", "brackets", "params", "constraints"), "algebra document")
    dim = _integer(doc.get("dim"), "algebra document needs an integer 'dim'")
    name = str(doc.get("name", ""))
    params = _list_field(doc, "params", str, "strings")
    nonzero = []
    for entry in _list_field(doc, "constraints", dict, "objects"):
        _known_keys(entry, ("param", "nonzero"), f"constraint {entry!r}")
        p = entry.get("param")
        if p not in params:
            raise AlgebraError(f"constraint references unknown parameter {p!r}")
        if entry.get("nonzero"):
            nonzero.append(p)
    brackets = {}  # {(i, j): {k: [(coef, param or None), ...]}}
    for entry in _list_field(doc, "brackets", dict, "objects"):
        _known_keys(entry, ("i", "j", "out"), f"bracket entry {entry!r}")
        i, j = (_integer(entry.get(f), f"bad bracket entry {entry!r}: {f!r} must be an integer")
                for f in ("i", "j"))
        if not (1 <= i < j <= dim):
            raise AlgebraError(f"bracket pair ({i}, {j}) must satisfy 1 <= i < j <= {dim}")
        if (i, j) in brackets:
            raise AlgebraError(f"bracket pair ({i}, {j}) is listed twice")
        out_doc = entry.get("out", {})
        if not isinstance(out_doc, dict):
            raise AlgebraError(f"bracket ({i}, {j}): 'out' must be an object, got {out_doc!r}")
        out = {}
        for k_str, value in out_doc.items():
            k = _integer(k_str, f"bracket ({i}, {j}): output index must be an integer")
            if not (1 <= k <= dim):
                raise AlgebraError(f"bracket output index {k} out of range")
            if k in out:
                raise AlgebraError(f"bracket ({i}, {j}): output index {k} is given twice")
            terms = value if isinstance(value, list) else [value]
            parsed = [_parse_coefficient(t) for t in terms]
            for _, param in parsed:
                if param is not None and param not in params:
                    raise AlgebraError(f"coefficient references unbound parameter {param!r}")
            out[k] = parsed
        brackets[(i, j)] = out

    values = {k: parse_rational(v) for k, v in (bindings or {}).items()}
    for p in params:
        if p not in values:
            raise AlgebraError(f"{name}: unbound parameter {p!r}")
    for p in values:
        if p not in params:
            raise AlgebraError(f"{name}: unknown parameter {p!r} (takes {params or 'none'})")
    for p in nonzero:
        if values[p] == 0:
            raise CatalogError(f"{name}: parameter {p} must be nonzero")
    entries = {}
    for (i, j), out in brackets.items():
        vec = [Fraction(0)] * dim
        for k, terms in out.items():
            vec[k - 1] = sum(coef * (values[param] if param else 1) for coef, param in terms)
        entries[(i, j)] = vec
    sc = StructureConstants(dim, entries, name=name)
    violations = check_jacobi(sc)
    if violations:
        raise JacobiError(violations)
    return sc


def load_algebra(source, bindings: Mapping[str, Fraction] | None = None) -> StructureConstants:
    """Load an algebra document (dict, JSON text, or path) and bind parameters.

    A ``dict`` is the document itself and an ``os.PathLike`` is a path.  A
    ``str`` is JSON text when its first non-blank character is ``{`` and a
    path otherwise, so paths may contain braces.

    The result is Jacobi-checked; a violation raises :class:`JacobiError`
    with the offending triples and exact residual vectors.
    """
    if isinstance(source, os.PathLike) or (
            isinstance(source, str) and not source.lstrip().startswith("{")):
        with open(source, "r", encoding="utf-8") as fh:
            source = fh.read()
    return parse_algebra_document(source, bindings)


# ---------------------------------------------------------------------------
# Catalog: the algebras whose homology tables this package reproduces, written
# as algebra documents and parsed like a --file one when asked for.
# ---------------------------------------------------------------------------

_CATALOG: dict[str, dict] = {doc["name"]: doc for doc in [
    *({"name": f"abelian{n}", "dim": n} for n in range(1, 7)),
    {"name": "aff1", "dim": 2, "brackets": [{"i": 1, "j": 2, "out": {"1": "1"}}]},
    {"name": "heis3", "dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"3": "1"}}]},
    {"name": "g3d1n", "dim": 3, "brackets": [{"i": 1, "j": 2, "out": {"2": "1"}}]},
    {"name": "g3d2", "dim": 3,
     "brackets": [{"i": 1, "j": 3, "out": {"1": "1"}},
                  {"i": 2, "j": 3, "out": {"2": "alpha"}}],
     "params": ["alpha"], "constraints": [{"param": "alpha", "nonzero": True}]},
    {"name": "g3d3", "dim": 3,
     "brackets": [{"i": 1, "j": 2, "out": {"3": "1"}},
                  {"i": 1, "j": 3, "out": {"2": "-beta"}},
                  {"i": 2, "j": 3, "out": {"1": "alpha"}}],
     "params": ["alpha", "beta"],
     "constraints": [{"param": "alpha", "nonzero": True}, {"param": "beta", "nonzero": True}]},
    {"name": "sl2_efh", "dim": 3,
     "brackets": [{"i": 1, "j": 2, "out": {"3": "1"}},
                  {"i": 1, "j": 3, "out": {"1": "2"}},
                  {"i": 2, "j": 3, "out": {"2": "-2"}}]},
    # gl(2): basis E11, E12, E21, E22 with [E_ab, E_cd] = d_bc E_ad - d_da E_cb.
    {"name": "gl2", "dim": 4,
     "brackets": [{"i": 1, "j": 2, "out": {"2": "1"}},
                  {"i": 1, "j": 3, "out": {"3": "-1"}},
                  {"i": 2, "j": 3, "out": {"1": "1", "4": "-1"}},
                  {"i": 2, "j": 4, "out": {"2": "1"}},
                  {"i": 3, "j": 4, "out": {"3": "-1"}}]},
]}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog_entry(name: str) -> dict:
    """The named catalog document; an unknown name raises :class:`CatalogError`."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise CatalogError(f"unknown catalog algebra {name!r}; "
                           f"known: {', '.join(catalog_names())}") from None


def catalog_get(name: str, bindings: Mapping[str, Fraction] | None = None) -> StructureConstants:
    """The named catalog algebra with parameters substituted and Jacobi-checked."""
    doc = catalog_entry(name)
    try:
        return parse_algebra_document(doc, bindings)
    except CatalogError:
        raise
    except AlgebraError as exc:
        raise CatalogError(str(exc)) from exc
