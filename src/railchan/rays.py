"""Ray-path records shared by the tracers, the interpolator, and the writers.

A path is identified by its *signature*: the ordered list of interaction
kinds and the scene elements hosting them.  Two paths at different receiver
positions with equal signatures are the same physical path class, which is
the matching rule used when tracking paths across keyframes.

The tracers return :class:`RayPath` lists; a stream snapshot holds its paths
as one :class:`PathRows` block, the columns the writers and the metric
kernels read.  :func:`path_order` is the one row order of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

#: Speed of light in vacuum, m/s.
C0 = 299_792_458.0

# interaction kinds
REFLECTION = "R"
EDGE_DIFFRACTION = "D"  # vertical building edge
ROOFTOP_DIFFRACTION = "K"  # knife edge over a rooftop
SCATTERING = "S"  # discrete scatterer (cylinder)

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

    Tracers and the interpolator build paths with :meth:`batch` (a single
    path with :meth:`from_polyline`, its one-row case), so the delay and the
    angles always follow from the vertices.
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
    def batch(
        cls,
        interactions,
        vertices: np.ndarray,
        lengths: np.ndarray,
        transfers: np.ndarray,
        tags,
        dopplers,
    ) -> list[RayPath]:
        """One path per row of the (K, N, 3) ``vertices``.

        ``lengths`` are the K polyline lengths (:func:`polyline_lengths` of
        ``vertices``), taken as given so that a caller that needs them before
        the paths exist computes them once; delays are lengths over C0 and
        the angles come from :func:`path_angles`.  ``interactions``,
        ``transfers`` (K, 2, 2), ``tags`` and ``dopplers`` give one entry per
        row.
        """
        az, el = path_angles(vertices)
        delays = (np.asarray(lengths) / C0).tolist()
        return [
            cls(
                interactions=inters,
                vertices=verts,
                delay_s=delay,
                aod=(d_az, d_el),
                aoa=(a_az, a_el),
                transfer=transfer,
                tag=tag,
                doppler_hz=doppler,
            )
            for inters, verts, delay, (d_az, a_az), (d_el, a_el), transfer, tag, doppler in zip(
                interactions, vertices, delays, az.tolist(), el.tolist(), transfers, tags, dopplers
            )
        ]

    @classmethod
    def from_polyline(
        cls,
        interactions: tuple,
        vertices: np.ndarray,
        transfer: np.ndarray,
        tag: str = TAG_SPECULAR,
        doppler_hz: float = 0.0,
    ) -> RayPath:
        """Path along the (N, 3) ``vertices``: the one-row :meth:`batch`."""
        rows = vertices[None]
        return cls.batch(
            (interactions,), rows, polyline_lengths(rows), transfer[None], (tag,), (doppler_hz,)
        )[0]

    @cached_property
    def signature(self) -> str:
        """:func:`signature_of` the interactions, built on first access."""
        return signature_of(self.interactions)

    @property
    def power(self) -> float:
        """Frobenius-squared transfer power (polarization-agnostic weight)."""
        return float(np.sum(np.abs(self.transfer) ** 2))


def path_order(p) -> tuple:
    """Sort key of the one row order: specular rows first, then by
    interaction count, then by signature."""
    return (p.tag != TAG_SPECULAR, len(p.interactions), p.signature)


class PathRow(NamedTuple):
    """One row of a :class:`PathRows` block as plain values: a path without
    its vertices."""

    interactions: tuple
    signature: str
    tag: str
    delay_s: float
    aod: tuple[float, float]
    aoa: tuple[float, float]
    doppler_hz: float
    transfer: np.ndarray


def _objects(values: list) -> np.ndarray:
    """``values`` as a 1-D object array, each entry kept whole (a tuple is
    not unpacked into a second axis)."""
    return np.fromiter(values, dtype=object, count=len(values))


@dataclass(eq=False)
class PathRows:
    """The K paths of one snapshot as one struct-of-arrays block.

    interactions, signature, tag : (K,) object arrays holding each row's
        path records themselves (the tracked path's, never rebuilt)
    delay_s, doppler_hz : (K,) floats
    aod, aoa : (K, 2) (azimuth, elevation), as on :class:`RayPath`
    transfer : (K, 2, 2) complex, C-contiguous

    ``len`` is K; ``rows[k]`` reads row k back as a :class:`PathRow`.
    """

    interactions: np.ndarray
    signature: np.ndarray
    tag: np.ndarray
    delay_s: np.ndarray
    aod: np.ndarray
    aoa: np.ndarray
    doppler_hz: np.ndarray
    transfer: np.ndarray

    @classmethod
    def from_paths(cls, paths) -> PathRows:
        """The rows of ``paths`` (records with the fields of a
        :class:`PathRow`, such as :class:`RayPath`), in order."""
        n = len(paths)
        return cls(
            interactions=_objects([p.interactions for p in paths]),
            signature=_objects([p.signature for p in paths]),
            tag=_objects([p.tag for p in paths]),
            delay_s=np.array([p.delay_s for p in paths], dtype=float),
            aod=np.array([p.aod for p in paths], dtype=float).reshape(n, 2),
            aoa=np.array([p.aoa for p in paths], dtype=float).reshape(n, 2),
            doppler_hz=np.array([p.doppler_hz for p in paths], dtype=float),
            transfer=np.array([p.transfer for p in paths], dtype=complex).reshape(n, 2, 2),
        )

    def __len__(self) -> int:
        return len(self.delay_s)

    def __getitem__(self, k: int) -> PathRow:
        return PathRow(
            self.interactions[k],
            self.signature[k],
            self.tag[k],
            float(self.delay_s[k]),
            tuple(self.aod[k].tolist()),
            tuple(self.aoa[k].tolist()),
            float(self.doppler_hz[k]),
            self.transfer[k],
        )

    def concat(self, tail: PathRows) -> PathRows:
        """These rows followed by the rows of ``tail``."""
        # vars() lists the fields in their declared order
        return PathRows(*(np.concatenate(pair) for pair in zip(vars(self).values(), vars(tail).values())))


def norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean lengths of (..., 3) vectors, shape (...): the bits of
    ``np.linalg.norm(vectors, axis=-1)``, which sums the squares in the same
    order, at about a quarter of its cost."""
    x, y, z = vectors[..., 0], vectors[..., 1], vectors[..., 2]
    return np.sqrt((x * x + y * y) + z * z)


def polyline_lengths(vertices: np.ndarray) -> np.ndarray:
    """Lengths of (..., N, 3) polylines, shape (...)."""
    return np.sum(norms(np.diff(vertices, axis=-2)), axis=-1)


def direction_angles(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(azimuth, elevation) in radians of (..., 3) direction vectors."""
    d = np.asarray(directions, dtype=float)
    # vecdot calls the same dot kernel as np.linalg.norm of one vector, so a
    # batch gives each row the bits a single-vector norm would
    norm = np.sqrt(np.vecdot(d, d))
    if (norm == 0.0).any():
        raise ValueError("zero direction has no angles")
    d = d / norm[..., None]
    return np.arctan2(d[..., 1], d[..., 0]), np.arcsin(np.clip(d[..., 2], -1.0, 1.0))


def path_angles(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(azimuth, elevation) arrays of shape (..., 2) for (..., N, 3)
    polylines: entry 0 is the departure along the first segment, entry 1
    the arrival pointing from the receiver back along the last segment."""
    return direction_angles(vertices[..., [1, -2], :] - vertices[..., [0, -1], :])
