"""The over-the-rooftops knife-edge path, one path at a time.

``oracle_rooftop_path`` is the rooftop generator as it was before the path
became the tracer's K family: a Python ``sorted`` over the crossed facades,
an apex loop that skips an apex coincident with the last vertex kept, and
one composition and ``path_oracle.RayPath`` per path.  The tracer's K path
is checked against it bit for bit.
"""

import numpy as np
from path_oracle import Interaction, RayPath, read_rows

from railchan.em import compose_path_matrix
from railchan.rays import ROOFTOP_DIFFRACTION
from railchan.scene import EPS_GEOM
from railchan.specular import SpecularTracer, TraceLimits

#: the rooftop path and nothing else
ROOF_ONLY = TraceLimits(max_reflections=0, max_vertical_diffractions=0, rooftop=True)


def oracle_rooftop_path(scene, tx, rx, carrier):
    """Rooftop knife-edge path for a blocked direct ray ``tx -> rx``, or
    None when the ground track crosses no roofline."""
    seg = rx - tx
    horiz = float(np.linalg.norm(seg[:2]))
    if horiz < EPS_GEOM:
        return None
    n = scene.n_facades
    t, s, _ = scene.facade_crossings(np.broadcast_to(tx, (n, 3)), np.broadcast_to(seg, (n, 3)), np.arange(n))
    tmin = EPS_GEOM / horiz
    ok = (t > tmin) & (t < 1.0 - tmin)
    ok &= (s >= -1e-12) & (s < scene.fac_len - 1e-12)
    idx = np.nonzero(ok)[0]
    if not len(idx):
        return None
    leaving = scene.fac_normal @ seg > 0.0
    order = sorted(
        idx, key=lambda f: (t[f], not leaving[f], int(scene.fac_object[f]), int(scene.fac_element[f]))
    )
    verts = [tx]
    hosts = []
    for f in order:
        apex = np.array([tx[0] + t[f] * seg[0], tx[1] + t[f] * seg[1], scene.fac_height[f]])
        if np.linalg.norm(apex - verts[-1]) < EPS_GEOM:
            continue
        verts.append(apex)
        hosts.append(f)
    if not hosts or np.linalg.norm(rx - verts[-1]) < EPS_GEOM:
        return None
    verts.append(rx)
    vert_arr = np.array(verts)
    kinds = (ROOFTOP_DIFFRACTION,) * len(hosts)
    transfer = compose_path_matrix(vert_arr[None], kinds, [np.array([f]) for f in hosts], scene, carrier)
    inters = tuple(
        Interaction(ROOFTOP_DIFFRACTION, int(scene.fac_object[f]), int(scene.fac_element[f])) for f in hosts
    )
    return RayPath.from_polyline(inters, vert_arr, transfer[0])


def rooftop_paths(paths):
    """The rooftop (K) paths among a solve's rows."""
    return [p for p in paths if p.signature.startswith(ROOFTOP_DIFFRACTION + "(")]


def traced_rooftop_path(scene, tx, rx, carrier, tracer=None, limits=ROOF_ONLY):
    """The K path of ``SpecularTracer.trace``, or None when it keeps none;
    a given ``tracer`` is one built at ``tx``."""
    tracer = tracer or SpecularTracer(scene, carrier, tx)
    found = rooftop_paths(read_rows(tracer.trace(np.asarray(rx, dtype=float)[None], limits)[0]))
    assert len(found) <= 1
    return found[0] if found else None

