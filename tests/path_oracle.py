"""The per-path record the solvers returned before their results became
``PathRows`` blocks, kept as the oracle of those blocks.

``Interaction`` is the record of one interaction, its kind and the scene
element hosting it, that a ``RayPath`` carries per interior vertex; its
``token`` is the oracle of the tokens ``railchan.rays.token`` builds, and a
path's ``signature`` joins them.

``RayPath`` is one path at one instant, built by ``RayPath.batch`` (a single
path by ``RayPath.from_polyline``), so its delay and angles always follow
from its vertices.  ``oracle_trace_lists`` is ``SpecularTracer.trace`` as it
was with that record: the tracer's own families, occlusion rounds, rooftop
family, de-duplication, composition and power floor, then one ``RayPath``
per kept row, its interactions read from the scene's host tables, and each
receiver's list sorted by ``path_key``, the row order ``rays.path_order``
gives a block.  ``rows_of`` turns such a list, or paths a test crafts, into
a block; ``assert_same_rows`` checks a block against a list bit for bit.

A block has no row record of its own: ``read_row`` reads one of its rows
back as a ``Row`` of plain values, and ``read_rows`` reads them all, in
order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from railchan.em import compose_path_matrix
from railchan.rays import (
    C0,
    EDGE_DIFFRACTION,
    LOS_SIGNATURE,
    TAG_SPECULAR,
    PathRows,
    path_angles,
    polyline_lengths,
)
from railchan.specular import _above_floor, _clear_masks, _joined, _unique_clear, trace_rooftop

FLOAT_COLUMNS = ("delay_s", "aod", "aoa", "doppler_hz", "transfer")
RECORD_COLUMNS = ("signature", "tag")

#: one token of a signature: kind, object id, element id
_TOKEN = re.compile(r"([A-Z])\((-?\d+):(-?\d+)\)")


@dataclass(frozen=True)
class Interaction:
    """One interaction along a path: its kind and the scene element hosting
    it.  Its location is the matching interior vertex of the path's
    polyline."""

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


def interactions_of(signature: str) -> tuple[Interaction, ...]:
    """The records ``signature`` names, in path order: the inverse of
    :func:`signature_of`."""
    if signature == LOS_SIGNATURE:
        return ()
    tokens = (_TOKEN.fullmatch(tok).groups() for tok in signature.split("|"))
    return tuple(Interaction(kind, int(o), int(e)) for kind, o, e in tokens)


def host_records(scene, kind: str) -> list[Interaction]:
    """The record of every host of ``kind`` in the scene: each wedge for an
    edge diffraction, each facade for a reflection or a rooftop edge."""
    if kind == EDGE_DIFFRACTION:
        hosts = zip(scene.wedge_object.tolist(), scene.wedge_element.tolist())
    else:
        hosts = zip(scene.fac_object.tolist(), scene.fac_element.tolist())
    return [Interaction(kind, o, e) for o, e in hosts]


@dataclass
class RayPath:
    """One propagation path at a single (tx, rx) instant.

    interactions : tuple of :class:`Interaction`, one per interior vertex
    vertices : (N, 3) array, tx first, rx last
    transfer : 2x2 complex matrix, (V, H) in to (V, H) out
    aod / aoa : (azimuth, elevation) of the departure direction and of the
        arrival direction pointing from the receiver back toward the last
        path vertex
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
    def batch(cls, interactions, vertices, lengths, transfers, tags, dopplers) -> list[RayPath]:
        """One path per row of the (K, N, 3) ``vertices``, whose K polyline
        lengths are ``lengths``; ``interactions``, ``transfers`` (K, 2, 2),
        ``tags`` and ``dopplers`` give one entry per row."""
        az, el = path_angles(vertices)
        delays = (np.asarray(lengths) / C0).tolist()
        return [
            cls(inters, verts, delay, (d_az, d_el), (a_az, a_el), transfer, tag, doppler)
            for inters, verts, delay, (d_az, a_az), (d_el, a_el), transfer, tag, doppler in zip(
                interactions, vertices, delays, az.tolist(), el.tolist(), transfers, tags, dopplers
            )
        ]

    @classmethod
    def from_polyline(cls, interactions, vertices, transfer, tag=TAG_SPECULAR, doppler_hz=0.0) -> RayPath:
        """Path along the (N, 3) ``vertices``: the one-row :meth:`batch`."""
        rows = vertices[None]
        return cls.batch((interactions,), rows, polyline_lengths(rows), transfer[None], (tag,), (doppler_hz,))[0]

    @cached_property
    def signature(self) -> str:
        return signature_of(self.interactions)


def path_key(p) -> tuple:
    """Sort key of the one row order: specular rows first, then by
    interaction count, then by signature."""
    return (p.tag != TAG_SPECULAR, len(interactions_of(p.signature)), p.signature)


def _objects(values: list) -> np.ndarray:
    return np.fromiter(values, dtype=object, count=len(values))


class Row(NamedTuple):
    """One row of a ``PathRows`` block as plain values."""

    signature: str
    tag: str
    delay_s: float
    aod: tuple[float, float]
    aoa: tuple[float, float]
    doppler_hz: float
    transfer: np.ndarray
    vertices: np.ndarray | None


def read_row(rows: PathRows, k: int) -> Row:
    """Row ``k`` of ``rows``."""
    return Row(
        rows.signature[k],
        rows.tag[k],
        float(rows.delay_s[k]),
        tuple(rows.aod[k].tolist()),
        tuple(rows.aoa[k].tolist()),
        float(rows.doppler_hz[k]),
        rows.transfer[k],
        rows.vertices[k],
    )


def read_rows(rows: PathRows) -> list[Row]:
    """Every row of ``rows``, in order."""
    return [read_row(rows, k) for k in range(len(rows))]


def rows_of(paths) -> PathRows:
    """The rows of ``paths`` (records with the fields of a ``RayPath``) in
    order, as one block, each row with its vertices."""
    n = len(paths)
    return PathRows(
        signature=_objects([p.signature for p in paths]),
        tag=_objects([p.tag for p in paths]),
        delay_s=np.array([p.delay_s for p in paths], dtype=float),
        aod=np.array([p.aod for p in paths], dtype=float).reshape(n, 2),
        aoa=np.array([p.aoa for p in paths], dtype=float).reshape(n, 2),
        doppler_hz=np.array([p.doppler_hz for p in paths], dtype=float),
        transfer=np.array([p.transfer for p in paths], dtype=complex).reshape(n, 2, 2),
        vertices=_objects([p.vertices for p in paths]),
    )


def assert_same_rows(got: PathRows, want: list, vertices: bool = False):
    """``got`` holds the paths ``want`` in their order: every float column
    bit for bit, the records equal, the transfers C-contiguous; with
    ``vertices``, every row's polyline bit for bit, else no row has one."""
    ref = rows_of(want)
    assert len(got) == len(ref)
    for name in FLOAT_COLUMNS:
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    for name in RECORD_COLUMNS:
        assert getattr(got, name).tolist() == getattr(ref, name).tolist(), name
    assert got.transfer.flags.c_contiguous
    if vertices:
        assert [(v.shape, v.tobytes()) for v in got.vertices] == [(v.shape, v.tobytes()) for v in ref.vertices]
    else:
        assert all(v is None for v in got.vertices)


def oracle_trace_lists(tracer, receivers, limits) -> list[list[RayPath]]:
    """The ``RayPath`` lists of ``tracer.trace(receivers, limits)`` as the
    tracer built them one record per row."""
    rx = np.asarray(receivers, dtype=float)
    sc = tracer.scene
    families = tracer.candidates(rx, limits)
    clear, _ = _clear_masks(sc, families)
    if limits.rooftop:
        blocked = np.ones(len(rx), dtype=bool)
        blocked[families[0][2][clear[0]]] = False
        roofs: dict[int, list] = {}
        for s in np.flatnonzero(blocked).tolist():
            verts, hosts = trace_rooftop(sc, tracer.tx, rx[s])
            if len(verts):
                roofs.setdefault(verts.shape[1], []).append((verts, hosts, np.array([s])))
        for parts in roofs.values():
            families.append(_joined(parts))
            clear.append(np.ones(len(parts), dtype=bool))
    out: list[list[RayPath]] = [[] for _ in rx]
    for verts, (kinds, hosts), owner in _unique_clear(families, clear):
        transfer = compose_path_matrix(verts, kinds, hosts, sc, tracer.carrier)
        kept = _above_floor(transfer, limits.power_floor_db)
        verts = verts[kept]
        tables = [host_records(sc, kind) for kind in kinds]
        records = [[table[j] for j in idx[kept].tolist()] for table, idx in zip(tables, hosts)]
        n = len(verts)
        paths = RayPath.batch(
            list(zip(*records)) if records else [()] * n,
            verts,
            polyline_lengths(verts),
            transfer[kept],
            [TAG_SPECULAR] * n,
            [0.0] * n,
        )
        for s, path in zip(owner[kept].tolist(), paths):
            out[s].append(path)
    for paths in out:
        paths.sort(key=path_key)
    return out
