"""sphereforge: constructing and certifying simplicial and polyhedral spheres.

Carves balls out of grid-like triangulations and cyclic polytope
boundaries, fills them with free sums of simplices, enumerates the
resulting triangulations, and certifies topology and geometric
realizability with exact rational arithmetic.
"""

from .complexes import (
    FreeSumCell,
    PolyComplex,
    Simplex,
    SimplicialComplex,
    VertexId,
    boundary_complex,
)
from .topology import (
    TopologyCertificate,
    betti_gf2,
    certify,
    verify_shelling,
)
from .carvefill import (
    BallInComplex,
    CompatibleFamily,
    FillManifest,
    Hole,
    carve_and_fill,
    fill_ball,
    is_compatible,
    missing_face,
    realize,
    triangulate_cell,
)
from .grid import (
    GridBox,
    GridRegion,
    JoinOfPaths,
    aztec_crosspolytope,
    band_cell_order,
    boundary_members,
    cell_simplex,
    diagonal_band,
    ehrhart_crosspolytope,
    is_grid_starconvex,
    join_of_paths,
)
from .constructions import (
    BUILDERS,
    ConstructionReport,
    build_aztec,
    build_aztec_highd,
    build_cyclic,
    build_highd,
    build_holes3,
    build_holes4,
    fill_holes,
)
from .geometry import (
    LiftedConfiguration,
    RegularAztecLift,
    Subdivision,
    aztec_lift,
    build_aztec_lift,
    compose_lift,
    convex_hull_brute,
    delta_search,
    detect_bipyramid_facets,
    eps_search,
    hull_with_apex,
    raise_centers,
    standard_coordinates,
    verify_regular,
)

__version__ = "0.1.0"
