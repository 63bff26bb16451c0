"""Boundary-integral detectors for exceptional points of the zero-energy
Faddeev scattering problem on a bounded 2-D domain.

The package discretizes the problem with spectrally accurate Nystrom
quadrature on the boundary, builds the interior and exterior
Dirichlet-to-Neumann maps, and locates or excludes exceptional points
through three independent detectors: the kernel criterion on
F_n - F^out(k), the small-(lambda, eps) eigenvalue expansion with its
locus eps ~ (mu/nu) lambda, and the negative-eigenvalue parity counter
n^-(k) of I + S_k (F_n - F_0).
"""

__version__ = "0.1.7"

# the one SHA-256 of every key and checksum, built into CPython: hashlib loads OpenSSL (3.5 MB of RSS)
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:
        from hashlib import sha256

from .geometry import (  # noqa: F401
    BoundaryCurve,
    NodeSet,
    curve_by_name,
    curve_from_fourier,
    curve_from_fourier_json,
    make_circle,
    make_ellipse,
    make_kite,
    sample,
)
from .green import (  # noqa: F401
    EULER_GAMMA,
    KPoint,
    gauss_legendre,
)
from .boundary_ops import (  # noqa: F401
    BlockForm,
    BoundaryOperator,
    NearSingularError,
    assemble_B,
    assemble_S,
    assemble_S0,
    block_form,
    invert_S,
    sigma_min,
)
from .dtn_maps import (  # noqa: F401
    PerturbedFamily,
    Potential,
    absorbing_potential,
    assemble_F0,
    assemble_Fn,
    assemble_Fout,
    assemble_Fout_bounded,
    assemble_Fout_zero,
    omega_poly_cos,
    omega_radial_poly,
    raster_potential,
    standard_conductive,
    zero_potential,
)
from .exceptional import (  # noqa: F401
    CriterionOperator,
    LocusResult,
    ParityRecord,
    ParityVerdict,
    ScanResult,
    XiCurve,
    assemble_P,
    criterion,
    fit_xi,
    mu,
    mu_for_family,
    n_minus,
    parity_path,
    scan,
    trace_locus,
)
from .transform import (  # noqa: F401
    BoundaryTrace,
    BoundReport,
    TransformValue,
    bound_check,
    scatter_t,
    trace_u,
)
from .disk_solver import DiskDtnSolver, InteriorResonanceError  # noqa: F401
from .validate import run_validation  # noqa: F401
