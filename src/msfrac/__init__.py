"""Multiscale spectral coarse solver for Darcy flow in fractured media.

Fine scale: bilinear quads with fractures either conforming to fine
edges (1D stiffness on the edge lattice) or embedded with independent
1D meshes coupled through transfer terms.  Coarse scale: spectral
generalized-eigenvalue bases per coarse-node neighborhood, glued by a
partition of unity, with optional adaptive enrichment and randomized
snapshot generation.
"""

from .grids import Rect, UNIT_SQUARE, CellBox, GridHierarchy, build_hierarchy
from .fractures import (Fracture, FractureModel, FractureNetwork, DfmTrace,
                        EfmTrace, GeometryError, rasterize_dfm, intersect_efm)
from .assembly import (PermeabilityField, FineSystem, FineSolution,
                       FineSolveError, assemble_dfm, assemble_efm, solve_fine,
                       bilinear_bc)
from .offline import (PartitionOfUnity, SnapshotSpace, NeighborhoodSpace,
                      compute_pou, full_snapshots, randomized_snapshots,
                      offline_eigendecomposition)
from .coarse import (MultiscaleSpace, CoarseSolution, build_space,
                     boundary_lift, solve_coarse, prolong)
from .adaptivity import (AdaptConfig, IndicatorReport, compute_indicators,
                         mark_dorfler, enrich, adaptive_loop)
from .analysis import ErrorReport, errors
from .config import RunConfig, ConfigError, load_config, parse_config

__version__ = "0.1.0"
