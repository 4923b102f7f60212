"""Wave scattering on networks of thin fibers via the limiting metric graph.

Subpackages:

- cross_section:  Dirichlet spectra of channel cross-sections
- graph_model:    the metric graph, junction models, index conventions
- graph_solver:   scattering solves and the network scattering matrix
- helmholtz_oracle: 2-D finite-difference reference solver (modal DtN)
- spectrum_tools: lambda sweeps, resonance flagging, threshold extrapolation
- cli:            command-line front end
"""

from .cross_section import Disk, Interval, Rectangle, lambda0
from .graph_model import (
    Channel,
    Dirichlet,
    GlobalModeOrdering,
    MatrixJunction,
    MetricGraph,
    OracleJunction,
    TabulatedJunction,
    Transparent,
    Vertex,
    validate_graph,
)
from .graph_solver import (
    EdgeWaveField,
    NetworkScattering,
    SolveRequest,
    assemble_system,
    energy_report,
    gc_residual,
    resolve_vertex,
    solve_scattering,
    wave_fields,
)

__all__ = [
    "Channel",
    "Dirichlet",
    "Disk",
    "EdgeWaveField",
    "GlobalModeOrdering",
    "Interval",
    "MatrixJunction",
    "MetricGraph",
    "NetworkScattering",
    "OracleJunction",
    "Rectangle",
    "SolveRequest",
    "TabulatedJunction",
    "Transparent",
    "Vertex",
    "assemble_system",
    "energy_report",
    "gc_residual",
    "lambda0",
    "resolve_vertex",
    "solve_scattering",
    "validate_graph",
    "wave_fields",
]

__version__ = "0.1.0"
