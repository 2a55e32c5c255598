"""Interior snapshots one path record at a time.

``oracle_interior`` is the interpolator as it was before a snapshot's paths
became one row block: the matched pairs of each vertex count evaluated as
one array batch and turned into ``RayPath`` rows by ``RayPath.batch``, then
a ``replace`` copy of every held birth or death, each snapshot's list in
bracket order (matched, births, deaths).  ``oracle_snapshot`` sorts such a
list, with any exact echoes appended, by ``path_oracle.path_key``, as the
stream sorted each snapshot.  The stream's rows are checked against it bit
for bit.  ``bracket_paths`` reads a bracket's index arrays back as the
records it tracks.
"""

import math
from dataclasses import replace

import numpy as np
from path_oracle import RayPath, interactions_of, path_key, read_row

from railchan.dynamics import RAMP_FRACTION
from railchan.em import C0
from railchan.rays import norms


def _oracle_matched(pairs, t_a, t_b, times, rx_positions, rx_velocities, carrier):
    """Rows of M matched pairs with one vertex count at S times, pair-major
    (row ``m * S + s`` is pair m at time s)."""
    pa, pb = zip(*pairs)
    span = t_b - t_a
    alpha = ((times - t_a) / span)[None, :, None, None]
    va = np.stack([p.vertices for p in pa])[:, None]
    vb = np.stack([p.vertices for p in pb])[:, None]
    verts = va + alpha * (vb - va)
    verts[:, :, -1] = rx_positions
    seg = np.diff(verts, axis=-2)
    seg_len = norms(seg)
    lengths = np.sum(seg_len, axis=-1)

    vel = np.zeros_like(verts)
    vel[:, :, 1:-1] = (vb[:, :, 1:-1] - va[:, :, 1:-1]) / span
    vel[:, :, -1] = rx_velocities
    with np.errstate(invalid="ignore"):
        units = seg / seg_len[..., None]
    rate = np.sum(np.einsum("...ij,...ij->...i", units, np.diff(vel, axis=-2)), axis=-1)
    doppler = -carrier.frequency_hz * rate / C0

    ta = np.stack([p.transfer for p in pa])[:, None]
    tb = np.stack([p.transfer for p in pb])[:, None]
    delay_a = np.array([p.delay_s for p in pa])[:, None]
    mag = (1.0 - alpha) * np.abs(ta) + alpha * np.abs(tb)
    dtau = (lengths / C0 - delay_a)[..., None, None]
    phase = np.angle(ta) - 2.0 * math.pi * carrier.frequency_hz * dtau
    transfer = mag * np.exp(1j * phase)

    n_times = len(times)
    n_verts = verts.shape[-2]
    return RayPath.batch(
        [p.interactions for p in pa for _ in range(n_times)],
        verts.reshape(-1, n_verts, 3),
        lengths.reshape(-1),
        transfer.reshape(-1, 2, 2),
        [p.tag for p in pa for _ in range(n_times)],
        doppler.reshape(-1).tolist(),
    )


def bracket_paths(bracket):
    """``(matched, births, deaths)`` of ``bracket`` as records: ``(row_a,
    row_b)`` pairs and ``(row, activation)`` pairs, each row a
    ``RayPath`` with the records its keyframe row's signature names, in
    bracket order."""

    def path(rows, k):
        p = read_row(rows, k)
        return RayPath(interactions_of(p.signature), p.vertices, p.delay_s, p.aod, p.aoa, p.transfer, p.tag, p.doppler_hz)

    a, b = bracket.rows_a, bracket.rows_b
    matched = [(path(a, i), path(b, j)) for i, j in bracket.matched.tolist()]
    births = [(path(b, k), act) for k, act in zip(bracket.births.tolist(), bracket.birth_at.tolist())]
    deaths = [(path(a, k), act) for k, act in zip(bracket.deaths.tolist(), bracket.death_at.tolist())]
    return matched, births, deaths


def oracle_interior(bracket, times, rx_positions, rx_velocities, carrier):
    """``RayPath`` lists at every one of ``times``, in bracket order."""
    t_a, t_b = bracket.t_a, bracket.t_b
    matched, births, deaths = bracket_paths(bracket)
    times = np.asarray(times, dtype=float)
    n_times = len(times)
    rows = [[None] * len(matched) for _ in range(n_times)]
    groups = {}
    for k, (pa, _) in enumerate(matched):
        groups.setdefault(len(pa.vertices), []).append(k)
    rx_positions = np.asarray(rx_positions, dtype=float)
    rx_velocities = np.asarray(rx_velocities, dtype=float)
    for ks in groups.values():
        paths = _oracle_matched(
            [matched[k] for k in ks], t_a, t_b, times, rx_positions, rx_velocities, carrier
        )
        for m, k in enumerate(ks):
            for s in range(n_times):
                rows[s][k] = paths[m * n_times + s]

    ramp = RAMP_FRACTION * (t_b - t_a)
    held = []
    for path, act in births:
        factor = np.where(times < act + ramp, (times - act) / ramp, 1.0)
        held.append((path, times > act, factor))
    for path, act in deaths:
        factor = np.where(times < act, 1.0, 1.0 - (times - act) / ramp)
        held.append((path, times < act + ramp, factor))
    for path, alive, factor in held:
        for row, ok, f in zip(rows, alive.tolist(), factor.tolist()):
            if ok:
                row.append(replace(path, transfer=path.transfer * f, doppler_hz=0.0))
    return rows


def oracle_snapshot(paths, echoes=()):
    """A snapshot's paths and its exact echoes in the stream's row order."""
    return sorted(list(paths) + list(echoes), key=path_key)
