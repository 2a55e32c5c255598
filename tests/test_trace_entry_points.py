"""The benchmark's traced layers still find the program's entry points.

``perfbench/tracing.py`` wraps the functions named in its ``ENTRY_POINTS``
and reads ``StreamResult`` fields with a default; a target that a refactor
renames or removes is skipped and its layer silently reads 0.  These checks
make such a loss fail here instead.  The benchmark files are read, never
written.
"""

from dataclasses import fields

from test_benchmark_outputs import _perfbench_module

from railchan.dynamics import ChannelSnapshot, StreamResult

tracing = _perfbench_module("tracing")

#: the one target known to be gone (``interpolate_bracket`` replaced it);
#: it stays listed so the benchmark's ``trace.absent_entry_points`` reads 1
KNOWN_ABSENT = ["railchan.dynamics:interpolate_path"]


def test_every_entry_point_resolves_but_the_known_absent_one():
    absent = []
    for target, _ in tracing.ENTRY_POINTS + tracing._other_writers():
        try:
            tracing._resolve(target)
        except (ImportError, AttributeError):
            absent.append(target)
    assert absent == KNOWN_ABSENT
    assert tracing._other_writers(), "the CLI's other writers are traced too"


def test_stream_result_keeps_the_fields_the_tracer_reads():
    names = {f.name for f in fields(StreamResult)}
    assert {"snapshots", "rt_invocations", "keyframe_seconds", "interpolation_seconds", "scatter_seconds"} <= names


def test_channel_snapshot_keeps_the_fields_the_tracer_reads():
    # the stream's observer counts the rows of each snapshot's ``paths``
    names = {f.name for f in fields(ChannelSnapshot)}
    assert {"timestamp", "paths"} <= names
