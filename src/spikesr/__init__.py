"""Super-resolution of clustered spike trains.

Recovery of amplitudes and nodes of a spike train from bandlimited noisy
spectral samples, with the machinery to study how recovery errors amplify when
some nodes nearly collide: exact Prony and Matrix Pencil solvers, worst-case
cluster perturbations, blowup/decimation conditioning analysis, and
reproducible sweep experiments measuring the error-scaling laws.
"""

__version__ = "0.1.0"

from .decimation import (
    IntervalSet,
    JacobianBoundReport,
    admissible_lambdas,
    angular_distance,
    confluent_vandermonde,
    gautschi_bounds,
    predicted_condition_numbers,
    sigma_intervals,
)
from .errors import (
    DegenerateFitError,
    DegenerateSystemError,
    EigenFailureError,
    EmptyAdmissibleSetError,
    EpsilonTooLargeError,
    InsufficientDataError,
    NearCoincidentNodesError,
    RankDeficiencyError,
    RepeatedRootsError,
    SpikesrError,
)
from .experiments import (
    DEFAULT_AMPLIFICATION_RANGES,
    DEFAULT_PHASE_RANGES,
    ExperimentRecord,
    PhaseBoundaryFit,
    SlopeFit,
    amplification_sweep,
    fit_loglog_slope,
    phase_transition_sweep,
    single_experiment,
    write_records_csv,
    write_records_jsonl,
)
from .matrix_pencil import (
    RecoveryResult,
    build_hankel,
    default_pencil_param,
    mp_recover,
)
from .prony import (
    PronySolution,
    prony_map,
    prony_polynomial,
    prony_solve,
    recurrence_residual,
)
from .signal import (
    ClusterGeometry,
    SpectralSamples,
    SpikeTrain,
    clean_spectrum,
    fourier_at,
    make_clustered_nodes,
    moments,
    sample_spectrum,
    scale,
    shift,
    standard_cluster_geometry,
    validate_cluster,
)
from .worstcase import (
    WorstCaseReport,
    displacement_scaling_probe,
    verify_spectral_deviation,
    worst_case_signal,
)
