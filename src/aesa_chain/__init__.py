"""Subarrayed phased-array radar processing chain.

Simulation and signal processing for a small X-band demonstrator: a 12 x 4
half-wavelength array read out through six 2 x 4 subarrays.  The package
covers dwell simulation, range-Doppler formation, conventional and adaptive
(MVDR) beamforming, CA-CFAR detection, subspace direction finding, and
inverse-synthetic imaging with contrast-based autofocus, plus a scenario
harness that reproduces the four chain tests end to end.
"""

from .beamform import (apply_beamformer, beamscan, BeamscanCurve,
                       BeamformerWeights, conventional_weights,
                       CovarianceEstimate, covariance_from_snapshots,
                       estimate_covariance, exclusion_mask,
                       mvdr_distortionless_weights, mvdr_weights,
                       rejection_db)
from .config import (dump_config, ExperimentConfig, load_config, load_tree,
                     resolve_config)
from .detect import (angular_error, AngularSpan, ca_cfar_threshold_factor,
                     cfar_detect, Detection, GroundTruthTrack, load_tracks,
                     music_spectrum, MusicSpectrum, PeakSet, pick_peaks,
                     select_training_subset, target_angular_span)
from .errors import (ChainError, ConfigError, EstimationError, NumericalError)
from .experiments import ExperimentReport, run_experiment, write_report
from .geometry import (ArrayGeometry, beampattern, element_steering,
                       geometry_table, SPEED_OF_LIGHT, subarray_steering,
                       subarray_steering_matrix)
from .gridio import Grid, GridAxis, read_grid, write_csv, write_grid
from .isar import (AutofocusResult, cross_range_scale, extract_target_history,
                   form_image, icba_autofocus, image_contrast, IsarImage,
                   PhasePolynomial, range_align, RangeProfileHistory)
from .rdproc import (CompressedDwell, doppler_process, range_compress,
                     RDDatacube, rd_map)
from .scene import (ClutterBand, JammerSource, PointTarget, RadarParams,
                    RawDatacube, RigidBodyTarget, simulate_dwell,
                    simulate_isar_sequence, target_amplitude, transmit_pulse)
from .version import __version__

__all__ = [
    "__version__",
    "AngularSpan", "ArrayGeometry", "AutofocusResult",
    "BeamformerWeights", "BeamscanCurve", "ChainError", "ClutterBand",
    "CompressedDwell", "ConfigError", "CovarianceEstimate", "Detection",
    "EstimationError", "ExperimentConfig", "ExperimentReport",
    "GroundTruthTrack", "Grid", "GridAxis", "IsarImage", "JammerSource",
    "MusicSpectrum", "NumericalError", "PeakSet", "PhasePolynomial",
    "PointTarget", "RDDatacube", "RadarParams", "RangeProfileHistory",
    "RawDatacube", "RigidBodyTarget", "SPEED_OF_LIGHT",
    "angular_error", "apply_beamformer", "beampattern", "beamscan",
    "ca_cfar_threshold_factor", "cfar_detect", "conventional_weights",
    "covariance_from_snapshots", "cross_range_scale", "doppler_process",
    "dump_config", "element_steering", "estimate_covariance",
    "exclusion_mask", "extract_target_history", "form_image",
    "geometry_table", "icba_autofocus", "image_contrast", "load_config",
    "load_tracks", "load_tree", "music_spectrum",
    "mvdr_distortionless_weights", "mvdr_weights",
    "pick_peaks", "range_align", "range_compress", "rd_map", "read_grid",
    "rejection_db", "resolve_config", "run_experiment",
    "select_training_subset", "simulate_dwell", "simulate_isar_sequence",
    "subarray_steering", "subarray_steering_matrix", "target_amplitude",
    "target_angular_span", "transmit_pulse", "write_csv", "write_grid",
    "write_report",
]
