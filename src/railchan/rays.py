"""Path rows shared by the tracers, the interpolator, and the writers.

A path is identified by its *signature*: the ordered list of interaction
kinds and the scene elements hosting them, one :func:`token` per interior
vertex joined by ``|`` (``LOS`` for none).  Two paths at different receiver
positions with equal signatures are the same physical path class, which is
the matching rule used when tracking paths across keyframes, and the
signature is the only record of a row's interactions.  This module owns
that format: the tracers build their hosts' tokens once, and
:func:`path_order` reads a row's interaction count back from it.

Every path set is one :class:`PathRows` block, a struct of arrays: the
specular tracer and the scatter engine return one per receiver, tracking
reads two keyframes' blocks by row index, and each stream snapshot holds
one, the columns the writers and the metric kernels read.  A solved row
carries its polyline; an interpolated row, and every row of a snapshot,
carries none.  :func:`path_order` is the one row order.
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

#: tag values for the trace output
TAG_SPECULAR = "specular"
TAG_SCATTER = "scatter"

LOS_SIGNATURE = "LOS"


def token(kind: str, object_id: int, element_id: int) -> str:
    """The signature token of one interaction: its kind and the scene
    element hosting it."""
    return f"{kind}({object_id}:{element_id})"


def signature_of(tokens) -> str:
    """Canonical signature string for a sequence of interaction tokens."""
    return "|".join(tokens) or LOS_SIGNATURE


def path_order(rows: PathRows) -> np.ndarray:
    """The one row order: the stable permutation of ``rows`` that puts
    specular rows first, then sorts by interaction count, then by
    signature."""
    signatures = rows.signature.tolist()
    counts = [0 if sig == LOS_SIGNATURE else sig.count("|") + 1 for sig in signatures]
    keys = list(zip((rows.tag != TAG_SPECULAR).tolist(), counts, signatures))
    return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)


def _objects(values: list) -> np.ndarray:
    """``values`` as a 1-D object array, each entry kept whole (a tuple is
    not unpacked into a second axis)."""
    return np.fromiter(values, dtype=object, count=len(values))


@dataclass(eq=False)
class PathRows:
    """K paths as one struct-of-arrays block: a solve's paths at one
    receiver, or a snapshot's.

    signature, tag : (K,) object arrays holding each row's records (a
        tracked row's are its keyframe row's own, never rebuilt)
    delay_s, doppler_hz : (K,) floats
    aod, aoa : (K, 2) (azimuth, elevation) of the departure direction and of
        the arrival direction pointing from the receiver back toward the last
        path vertex
    transfer : (K, 2, 2) complex, (V, H) in to (V, H) out
    vertices : (K,) object array of each solved row's (n, 3) polyline, tx
        first, rx last; None on a row without one

    ``len`` is K; a row is read column by column.
    """

    signature: np.ndarray
    tag: np.ndarray
    delay_s: np.ndarray
    aod: np.ndarray
    aoa: np.ndarray
    doppler_hz: np.ndarray
    transfer: np.ndarray
    vertices: np.ndarray

    @classmethod
    def from_polylines(
        cls, signature: list, tag: str, vertices: np.ndarray, transfer: np.ndarray
    ) -> PathRows:
        """The K paths along the (K, n, 3) ``vertices`` with the (K, 2, 2)
        ``transfer``, all tagged ``tag``: each delay is its polyline's length
        over C0, the angles come from :func:`path_angles`, and the Doppler is
        0.  ``signature`` gives one entry per row."""
        n = len(vertices)
        az, el = path_angles(vertices)
        return cls(
            signature=_objects(signature),
            tag=np.full(n, tag, dtype=object),
            delay_s=polyline_lengths(vertices) / C0,
            aod=np.column_stack([az[:, 0], el[:, 0]]),
            aoa=np.column_stack([az[:, 1], el[:, 1]]),
            doppler_hz=np.zeros(n),
            transfer=np.ascontiguousarray(transfer, dtype=complex),
            vertices=_objects(list(vertices)),
        )

    @classmethod
    def empty(cls) -> PathRows:
        """A block of no rows."""
        return cls.from_polylines([], TAG_SPECULAR, np.zeros((0, 2, 3)), np.zeros((0, 2, 2)))

    def __len__(self) -> int:
        return len(self.delay_s)

    def take(self, index) -> PathRows:
        """The rows ``index`` (a slice, mask or index array) selects, in its
        order."""
        # vars() lists the fields in their declared order
        return PathRows(*(column[index] for column in vars(self).values()))

    def concat(self, *tails: PathRows) -> PathRows:
        """These rows followed by the rows of each of ``tails``."""
        return PathRows(*map(np.concatenate, zip(*(vars(rows).values() for rows in (self, *tails)))))

    def split(self, owner: np.ndarray, n: int) -> list[PathRows]:
        """The rows of each of ``n`` owners in turn, given the owner of each
        row, in non-decreasing order."""
        bounds = np.searchsorted(owner, np.arange(n + 1)).tolist()
        return [self.take(slice(a, b)) for a, b in zip(bounds, bounds[1:])]


def norms(vectors: np.ndarray, out=None) -> np.ndarray:
    """Euclidean lengths of (..., 3) vectors, shape (...), into ``out`` if
    given: the bits of ``np.linalg.norm(vectors, axis=-1)``, which sums the
    squares in the same order, at about a quarter of its cost."""
    x, y, z = vectors[..., 0], vectors[..., 1], vectors[..., 2]
    return np.sqrt((x * x + y * y) + z * z, out=out)


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
