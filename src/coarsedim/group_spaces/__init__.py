"""Groups as metric spaces: Cayley balls, free products of pointed spaces,
amalgam normal forms, extension checks, dimension-bound calculus, and the
logarithmic space of balls."""

from .groups import (  # noqa: F401
    CayleyBall,
    ExternalGroupOracle,
    GroupModel,
    QuotientPresentation,
    cayley_ball,
    cyclic_group,
    enumerate_ball,
    free_abelian_group,
    free_group,
    group_from_json,
    heisenberg_center_quotient,
    heisenberg_group,
    kernel_neighborhood_check,
)
from .free_products import (  # noqa: F401
    FreeProductSpace,
    PointedSpace,
    TreeSpace,
    free_product_space,
    free_product_tree,
    tree_projection,
    word_stratification,
)
from .amalgams import (  # noqa: F401
    AmalgamModel,
    amalgam_group_model,
    amalgam_projection,
    plain_free_product_z2_z3,
    z4_amalgam_z6,
    z_amalgam_2z,
)
from .bounds import (  # noqa: F401
    NormalSeries,
    asdim_upper_bound,
    hirsch_length,
    parse_bound_expr,
)
from .hyperbolic import (  # noqa: F401
    BallSpacePoint,
    height_projection,
    hyperbolization,
)
