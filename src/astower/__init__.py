"""Exact verification toolkit for a wild Artin-Schreier tower.

Subpackages split along the data they own: `ff` holds finite-field
contexts, `laurent` the sparse Laurent/series kernel, `local` the
uniformizer and conductor machinery at the place over infinity, `tower`
the function-field presentation with its automorphisms, and `genus` the
global genus and group-size bookkeeping.  `cli` is the `astower` command.

Importing the package loads only the error classes.  Every other name in
`__all__` is resolved on first access (PEP 562), which imports the module
that owns it, so a report loads only the layers it uses and
`from astower import genus_of_F` works as before.
"""

__version__ = "0.1.0"

from .errors import IntegrityError, ParameterError, UnsupportedError

_OWNERS = {
    "ff": ("FieldCtx", "Params", "basis_and_reps", "make_field"),
    "genus": ("audit_closed_forms", "base_floor_genus", "class_conductors",
              "class_line_counts", "conductor_ladder", "cover_classes",
              "genus_of_F", "gs_aggregate", "ree_aggregate",
              "ree_line_groups", "rh_genus", "verify_big_action"),
    "laurent": ("LaurentPoly", "TruncatedSeries"),
    "local": ("build_uniformizer", "conductor_of_cover", "cover_rhs_polys",
              "expand_at_infinity", "reduce_mod_wp"),
    "tower": ("certify_automorphism", "certify_group", "check_endo",
              "commutator", "compose_endo", "extension_multiplicity",
              "identity_endo", "invert_endo", "presentation",
              "presentation_equiv", "prolong_translation", "sigma_shift",
              "tau_shift", "vertical_shift_families", "wp_solve"),
}
_OWNER = {name: module for module, names in _OWNERS.items()
          for name in names}

__all__ = sorted(["IntegrityError", "ParameterError", "UnsupportedError",
                  "__version__", *_OWNER])


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_OWNER))
