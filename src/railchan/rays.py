"""Ray-path records shared by the tracers, the interpolator, and the writers.

A path is identified by its *signature*: the ordered list of interaction
kinds and the scene elements hosting them.  Two paths at different receiver
positions with equal signatures are the same physical path class, which is
the matching rule used when tracking paths across keyframes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Speed of light in vacuum, m/s.
C0 = 299_792_458.0

# interaction kinds
REFLECTION = "R"
EDGE_DIFFRACTION = "D"  # vertical building edge
ROOFTOP_DIFFRACTION = "K"  # knife edge over a rooftop
SCATTERING = "S"  # discrete scatterer (cylinder)

KINDS = (REFLECTION, EDGE_DIFFRACTION, ROOFTOP_DIFFRACTION, SCATTERING)

#: tag values for the trace output
TAG_SPECULAR = "specular"
TAG_SCATTER = "scatter"

LOS_SIGNATURE = "LOS"


@dataclass(frozen=True)
class Interaction:
    """One interaction along a path: its kind and the scene element hosting
    it.  Its location is the matching interior vertex of the path
    (``RayPath.vertices[1:-1]``)."""

    kind: str
    object_id: int
    element_id: int

    def token(self) -> str:
        return f"{self.kind}({self.object_id}:{self.element_id})"


def signature_of(interactions) -> str:
    """Canonical signature string for an interaction sequence."""
    if not interactions:
        return LOS_SIGNATURE
    return "|".join(rec.token() for rec in interactions)


@dataclass
class RayPath:
    """One propagation path at a single (tx, rx) instant.

    interactions : tuple of :class:`Interaction`, one per interior vertex
    vertices : (N, 3) array, tx first, rx last
    transfer : 2x2 complex matrix, (V, H) in to (V, H) out
    aod / aoa : (azimuth, elevation) of the departure direction and of the
        arrival direction pointing from the receiver back toward the last
        path vertex

    Tracers and the interpolator build paths with :meth:`from_polyline`, so
    the delay and the angles always follow from the vertices.
    """

    interactions: tuple
    vertices: np.ndarray
    delay_s: float
    aod: tuple[float, float]
    aoa: tuple[float, float]
    transfer: np.ndarray
    tag: str = TAG_SPECULAR
    doppler_hz: float = 0.0

    @classmethod
    def from_polyline(
        cls,
        interactions: tuple,
        vertices: np.ndarray,
        transfer: np.ndarray,
        tag: str = TAG_SPECULAR,
        doppler_hz: float = 0.0,
    ) -> RayPath:
        """Path along ``vertices``: delay is the polyline length over C0,
        angles come from :func:`path_angles`."""
        aod, aoa = path_angles(vertices)
        return cls(
            interactions=interactions,
            vertices=vertices,
            delay_s=polyline_length(vertices) / C0,
            aod=aod,
            aoa=aoa,
            transfer=transfer,
            tag=tag,
            doppler_hz=doppler_hz,
        )

    @property
    def length_m(self) -> float:
        return polyline_length(self.vertices)

    @property
    def signature(self) -> str:
        return signature_of(self.interactions)

    @property
    def power(self) -> float:
        """Frobenius-squared transfer power (polarization-agnostic weight)."""
        return float(np.sum(np.abs(self.transfer) ** 2))


def polyline_length(vertices: np.ndarray) -> float:
    """Sum of the segment lengths of an (N, 3) polyline."""
    return float(np.sum(np.linalg.norm(np.diff(vertices, axis=0), axis=1)))


def direction_angles(direction: np.ndarray) -> tuple[float, float]:
    """(azimuth, elevation) in radians of a 3D direction vector."""
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ValueError("zero direction has no angles")
    d = d / norm
    az = float(np.arctan2(d[1], d[0]))
    el = float(np.arcsin(np.clip(d[2], -1.0, 1.0)))
    return az, el


def path_angles(vertices: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
    """(aod, aoa) for a polyline: departure along the first segment, arrival
    pointing from the receiver back along the last segment."""
    aod = direction_angles(vertices[1] - vertices[0])
    aoa = direction_angles(vertices[-2] - vertices[-1])
    return aod, aoa
