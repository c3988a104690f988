"""Open-loop control under joint chance constraints for linear systems whose
state matrices carry independent random entries.

The pipeline: ``moments`` propagates exact means/variances of constraint
margins through products of random matrices; ``reformulate`` turns the joint
chance constraint into per-row mean/deviation inequalities with a shared
risk budget via Boole's inequality and the one-sided Vysochanskij-Petunin
bound; ``acs`` alternates convex input and multiplier steps; ``conic`` is
the in-repo solver for the convex slices; ``scenario`` is the sampled
baseline; ``stochastics`` supplies distributions, samplers and Monte-Carlo
certification; ``config``/``cli`` wrap everything for batch use.

Each A(t) is a ``moments.RandomMatrixModel``: its mean and variance
matrices, which moment propagation reads, and ``sites``, the random entries
row-major as (i, j, dist), which scenario sampling and Monte-Carlo
certification draw; dist is None for an entry known only by its moments.
"""

from .acs import AcsConfig, Cost, build_input_program, init_lambdas, lambda_step, run, u_step
from .conic import ConicProgram, SocRow, SolverOptions, SolverOutcome, solve
from .config import ProblemConfig, load_config, load_two_bus, parse_config, two_bus_config_path
from .errors import (
    AllocationInfeasible,
    ConfigError,
    DomainError,
    MomentUndefined,
    NotPSD,
    SamplerMissing,
    VpccError,
)
from .moments import (
    ConstraintMoments,
    RandomMatrixModel,
    SystemSpec,
    constraint_moments,
    quad_form_mean,
)
from .reformulate import (
    LAMBDA_FLOOR,
    ConstraintRow,
    FeasibilityReport,
    JointChanceConstraint,
    ReformulatedConstraint,
    RiskAllocation,
    RowSet,
    build_reformulation,
    check_feasibility,
    risk_to_lambda,
    vp_bound,
)
from .report import SolveReport
from .scenario import ScenarioConfig, required_samples, solve_scenario
from .stochastics import (
    DistributionSpec,
    McCertificate,
    beta_dist,
    clopper_pearson_upper,
    constant,
    finite_support,
    mc_certify,
    sample,
    weibull,
)

__version__ = "0.1.0"
