"""Interval semirings: exact construction and exhaustive analysis.

Intervals [0, a] are identified by their right endpoint, with endpoint
arithmetic drawn from modular integers, non-negative integers or
rationals, finite lattices, or neutrosophic numbers a + bI.  On top of a
coefficient domain the package builds formal-sum semirings over
polynomial or finite-carrier bases (groups, loops, groupoids,
semigroups), and row or square matrix semirings.  Analysis routines
search for zero divisors, idempotents, units, nilpotents, and
Smarandache special elements, classify semifields, check substructures
and homomorphisms, and sweep parameter families for theorem-shaped
claims.  Every search reports whether it was exhaustive.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, under the module that defines it.  Importing the
# package loads none of them: ``__getattr__`` loads a name's module on its
# first access, so a process compiles only the modules it uses (`isl table`
# adds carriers alone to cli, a report class loads reports alone, a sweep
# sweeps and then what it runs, and only a query loads analysis, tables,
# laws and numpy).
_NAMES = {
    "errors": ("SpecError", "DomainMismatchError", "ParseError"),
    "domains": (
        "DomainSpec", "IntervalElem", "zn_interval", "nat_interval",
        "rat_interval", "chain_lattice", "table_lattice", "neutro_pure",
        "neutro_mixed", "element", "domain_elements", "parse_element",
        "lattice_element", "format_element", "element_key", "pair_key",
        "canonical_pair", "domain_zero", "domain_one", "dom_add", "dom_mul",
        "is_finite_domain", "is_strict_domain", "domain_to_json",
        "domain_from_json"),
    "carriers": (
        "Magma", "CarrierMeta", "build_loop", "loop_parameters",
        "build_groupoid", "cyclic_group", "dihedral_group", "symmetric_group",
        "symmetric_semigroup", "mult_semigroup_zn", "additive_group_zn",
        "mult_group_zp", "build_carrier", "carrier_kinds", "carrier_to_json",
        "render_table"),
    "laws": (
        "LawProfile", "check_laws", "loop_law_summary", "validate_witness",
        "closure_of", "associator_closure", "enumerate_substructures"),
    "formalsums": (
        "FormalSum", "PolyBasis", "SemiringSpec", "make_spec", "fs_zero",
        "fs_one", "fs_term", "fs_from_terms", "fs_add", "fs_mul", "fs_scale",
        "poly_mul", "semiring_size", "enumerate_elements", "basis_keys",
        "basis_token", "resolve_basis_token", "basis_is_finite"),
    "matrices": (
        "IntervalMatrix", "ROW", "SQUARE", "row_matrix", "square_matrix",
        "matrix_from_rows", "zero_matrix", "identity_matrix", "mat_add",
        "mat_mul", "scale_matrix", "render_matrix", "matrix_to_json"),
    "handle": ("SemiringHandle",),
    "reports": ("Finding", "AnalysisReport", "Classification", "HomReport"),
    "analysis": (
        "find_zero_divisors", "find_idempotents", "find_units",
        "find_nilpotents", "find_s_special", "validate_s_certificate",
        "check_substructure", "classify_semiring", "semifield_within",
        "smarandache_search", "check_homomorphism", "verify_axioms",
        "matrix_zd_comparison"),
    "sweeps": ("theorem_sweep", "sweep_passed"),
    "expressions": (
        "parse_expression", "ast_to_str", "eval_expression", "eval_pair",
        "parse_formal_sum"),
}
_HOME = {name: home for home, names in _NAMES.items() for name in names}

# The submodules a star import binds.  `handle` is left out, so the set
# stays the one bound while SemiringHandle lived in analysis.
_SUBMODULES = ("analysis", "carriers", "domains", "errors", "expressions",
               "formalsums", "matrices", "tables")

__all__ = [*_HOME, *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES or name in _NAMES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
