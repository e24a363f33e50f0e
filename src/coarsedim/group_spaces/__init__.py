"""Groups as metric spaces: Cayley balls, free products of pointed spaces,
amalgam normal forms, extension checks, dimension-bound calculus, and the
logarithmic space of balls.

Importing the package loads none of its submodules: each name below is
resolved from its submodule on first use (PEP 562), so a process that
needs only Cayley balls never compiles the free-product, amalgam, bound or
hyperbolization code."""

from importlib import import_module

_SUBMODULE = {name: module for module, names in {
    "groups": ("CayleyBall", "ExternalGroupOracle", "GroupModel", "QuotientPresentation", "cayley_ball",
               "cyclic_group", "enumerate_ball", "free_abelian_group", "free_group", "group_from_json",
               "heisenberg_center_quotient", "heisenberg_group", "kernel_neighborhood_check"),
    "free_products": ("FreeProductSpace", "PointedSpace", "TreeSpace", "free_product_space",
                      "free_product_tree", "tree_projection", "word_stratification"),
    "amalgams": ("AmalgamModel", "amalgam_group_model", "amalgam_projection", "plain_free_product_z2_z3",
                 "z4_amalgam_z6", "z_amalgam_2z"),
    "bounds": ("NormalSeries", "asdim_upper_bound", "hirsch_length", "parse_bound_expr"),
    "hyperbolic": ("BallSpacePoint", "height_projection", "hyperbolization"),
}.items() for name in names}
__all__ = sorted(_SUBMODULE)  # ``import *`` resolves each name through ``__getattr__``


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
