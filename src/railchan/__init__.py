"""railchan: deterministic dynamic radio-channel simulation for rail links.

A base station illuminates a train moving through a built-up scene.  The
package traces specular ray paths (image method with diffraction), adds
physical-optics scattering from trackside cylinders, interpolates traced
keyframes into a dense channel stream with path birth/death, and evaluates
channel metrics against reference streams.
"""

from railchan.config import ConfigError, ScenarioConfig, load_config_file, load_preset
from railchan.dynamics import ChannelSnapshot, StreamResult, Trajectory, stream_snapshots
from railchan.em import C0, CarrierConfig
from railchan.metrics import (
    compare_streams,
    metric_series,
    snapshot_metrics,
    synthesize_tv_cir,
)
from railchan.rays import PathRows
from railchan.scatter import ScatterEngine
from railchan.scene import (
    Building,
    CylinderScatterer,
    Material,
    Scene,
    SceneError,
    load_scene,
    load_scene_file,
)
from railchan.specular import SpecularTracer, TraceLimits

__version__ = "0.1.0"

__all__ = [
    "Building",
    "C0",
    "CarrierConfig",
    "ChannelSnapshot",
    "ConfigError",
    "CylinderScatterer",
    "Material",
    "PathRows",
    "ScatterEngine",
    "ScenarioConfig",
    "Scene",
    "SceneError",
    "SpecularTracer",
    "StreamResult",
    "TraceLimits",
    "Trajectory",
    "compare_streams",
    "load_config_file",
    "load_preset",
    "load_scene",
    "load_scene_file",
    "metric_series",
    "snapshot_metrics",
    "stream_snapshots",
    "synthesize_tv_cir",
    "__version__",
]
