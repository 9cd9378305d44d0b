"""Traffic-scene geometry, tracking and analytics for fixed roadside cameras.

Importing the package loads no submodule: each exported name loads the
module that defines it on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names exported from it
_EXPORTS = {
    "analytics": "FrameTracks HeatMap StateClassifier frame_stats "
                 "make_heatmaps perspective_sample render update_heatmaps",
    "box3d": "lift_to_3d make_footprint",
    "calibration": "fit_distortion_es ransac_homography ransac_iterations",
    "config": "AnalyticsConfig CLASS_NAMES Config DEFAULT_PRIORS "
              "RansacParams SrgParams load_config parse_config",
    "errors": "InputError ProcessingError RoadSceneError",
    "geometry": "CameraModel GroundScale Homography PixelPoint apply "
                "apply_many compose_from_camera estimate_dlt_xy invert",
    "imaging": "BackgroundAccumulator DistortionParams ImageBuffer "
               "histogram_match read_pnm write_pnm",
    "motion": "BevKalmanState abf kf_predict kf_update speed_mph",
    "roadmodel": "extract_boundary refine_mask srg_segment",
    "tracking": "DetectionGroup MomctTracker",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
