"""Exact homology of the graded Lie superalgebra on the exterior algebra
of a finite-dimensional Lie algebra.

Typical use::

    from superhomology import catalog_get, generator_system, betti_table

    sc = catalog_get("heis3")
    gs = generator_system(sc)
    table = betti_table(gs, w_max=6)
"""

from .algebra import (AlgebraError, CatalogError, JacobiError, StructureConstants,
                      catalog_get, catalog_names, check_jacobi, format_rational,
                      load_algebra, parse_algebra_document, parse_rational)
from .chain import (boundary_matrix, chain_basis, chain_dim, format_monomial, support_degrees,
                    torus_pieces)
from .exterior import (GeneratorSystem, Multivector, bracket_table,
                       generator_system, paper_level2_basis,
                       render_bracket_table, schouten, wedge_basis)
from .homology import (BettiRow, BettiTable, TableDiff, TableInvariantError,
                       betti_row, betti_table, verify_table)
from .ranklin import BACKEND, EliminationReport, RationalMatrix, rank_report

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "BACKEND", "BettiRow", "BettiTable",
    "CatalogError", "EliminationReport", "GeneratorSystem", "JacobiError",
    "Multivector", "RationalMatrix", "StructureConstants",
    "TableDiff", "TableInvariantError", "betti_row", "betti_table",
    "boundary_matrix", "bracket_table", "catalog_get", "catalog_names",
    "chain_basis", "chain_dim", "check_jacobi",
    "format_monomial", "format_rational", "generator_system", "load_algebra",
    "paper_level2_basis", "parse_algebra_document",
    "parse_rational", "rank_report", "render_bracket_table", "schouten",
    "support_degrees", "torus_pieces", "verify_table", "wedge_basis",
]
