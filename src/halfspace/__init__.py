"""Poisson kernels, Dirichlet solves, and harmonic-analysis verification
machinery for constant-coefficient elliptic systems in the upper half-space."""

from .errors import (AliasRisk, BadDescriptor, BadShape, CubeTooSmall,
                     EllipticityViolation, EmptyWindow, HalfspaceError,
                     ImproperSplit, InsufficientDecay, InsufficientLevels,
                     OutOfDomain, RealAxisRoot, SingularBoundaryMatrix,
                     UnknownExperiment)
from .grids import Grid, grid_fft, grid_ifft
from .systems import (EllipticSystem, RootSplit, SymbolPencil, build_system,
                      characteristic_roots, ellipticity_constant, symbol_pencil)
from .kernels import (PoissonKernelGrid, PoissonSymbolTable,
                      build_poisson_kernel, kernel_at, poisson_symbol_at,
                      poisson_symbol_dt_at, symbol_batch,
                      verify_kernel_properties)
from .solver import (BoundaryData, HalfSpaceField, TailTag, poisson_extend,
                     poisson_extend_each, trace_estimate,
                     weighted_integrability, wrap_bound)
from .operators import (ConeSpec, DyadicCubeFamily, hardy_littlewood,
                        nontangential_max, pointwise_max_principle_check)
from .spaces import (Atom, FiniteAtomicSum, carleson_norms, make_atom,
                     molecule_check, norm, star_seminorm, validate_atom)
from .report import Metric, RefinementEntry, VerificationReport, make_metric
from .harness import (ExperimentConfig, default_config, experiment_names,
                      run_experiment)

__version__ = "0.1.0"
