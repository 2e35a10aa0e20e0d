"""Beam-density discriminative feature embedding for LiDAR point clouds.

Estimates per-point multi-scale beam density from sensor geometry, clips it
to the training domain's density spectrum, and uses it to gate point-voxel
features, so that objects with matching local density map to nearby feature
vectors across sensors.  Ships with a synthetic ray-cast scan simulator for
desk-scale, end-to-end validation.
"""

from .augment import AugmentConfig, augment_pipeline, beam_sample, enhanced_mix3d
from .beams import (
    DEFAULT_SIGMAS,
    BeamProfile,
    band_center_density,
    beam_profile,
    density_for_cloud,
    point_density,
    rasterize_beams,
    smooth_profile,
)
from .embedding import (
    EmbeddingConfig,
    EmbeddingParams,
    EvalReport,
    Model,
    TrainConfig,
    checkpoint_tensors,
    evaluate,
    model_from_tensors,
    train,
)
from .sensors import (
    PRESETS,
    ProjectionParams,
    SensorConfig,
    SphericalCoords,
    beam_inclinations,
    get_preset,
    load_sensor_config,
    resolve_sensor,
)
from .simulate import Scene, make_dataset, raycast_scan, wall_scene
from .stats import ClipParams, DensityReservoir, fit_clip, soft_clip
from .voxels import VoxelGrid, majority_label, voxel_offsets, voxelize

__version__ = "0.1.0"
