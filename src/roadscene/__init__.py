"""Traffic-scene geometry, tracking and analytics for fixed roadside cameras."""

from .analytics import (AnalyticsConfig, FrameTracks, HeatMap,
                        StateClassifier, frame_stats, make_heatmaps,
                        perspective_sample, render, update_heatmaps)
from .box3d import DEFAULT_PRIORS, lift_to_3d, make_footprint
from .calibration import (RansacParams, fit_distortion_es, ransac_homography,
                          ransac_iterations)
from .config import Config, load_config, parse_config
from .errors import InputError, ProcessingError, RoadSceneError
from .geometry import (CameraModel, GroundScale, Homography, PixelPoint,
                       apply, apply_many, compose_from_camera, estimate_dlt,
                       invert)
from .imaging import (BackgroundAccumulator, DistortionParams, ImageBuffer,
                      histogram_match, read_pnm, write_pnm)
from .motion import (BevKalmanState, abf, heading, kf_predict, kf_update,
                     speed_mph)
from .roadmodel import SrgParams, extract_boundary, refine_mask, srg_segment
from .tracking import CLASS_NAMES, Detection, MomctTracker

__version__ = "0.1.0"

__all__ = [
    "AnalyticsConfig", "BackgroundAccumulator", "BevKalmanState",
    "CLASS_NAMES", "CameraModel", "Config", "DEFAULT_PRIORS", "Detection",
    "DistortionParams", "FrameTracks", "GroundScale", "HeatMap",
    "Homography", "ImageBuffer", "InputError", "MomctTracker", "PixelPoint",
    "ProcessingError", "RansacParams", "RoadSceneError", "SrgParams",
    "StateClassifier", "abf",
    "apply", "apply_many", "compose_from_camera", "estimate_dlt",
    "extract_boundary", "fit_distortion_es", "frame_stats", "heading",
    "histogram_match", "invert", "kf_predict", "kf_update", "lift_to_3d",
    "load_config", "make_footprint", "make_heatmaps", "parse_config",
    "perspective_sample", "ransac_homography", "ransac_iterations",
    "read_pnm", "refine_mask", "render", "speed_mph", "srg_segment",
    "update_heatmaps", "write_pnm",
]
