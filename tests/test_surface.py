"""Every name the package defines has a reader in the package or its demos.

The modules of ``src/railchan`` are parsed with ``ast``.  A public
top-level function or class, or a public method or property of a
top-level class, must be named somewhere in ``src/railchan`` or ``demos``
other than by its own ``def`` or ``class`` line; every field of a dataclass
or a NamedTuple must be read there as ``.field``.  A name that only the
tests read is test surface, and belongs in the tests' oracles.

The match is by name alone: a name that another definition or a local
shares passes, so these checks stop dead names from coming back rather than
audit every reader.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "railchan").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "demos").glob("*.py"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions() -> list[tuple[str, str]]:
    """(where, name) of every public top-level function and class of the
    package, and of every public method or property of its top-level
    classes."""
    found = []
    for path in PACKAGE:
        for node in _tree(path).body:
            if isinstance(node, _DEFS) and _public(node.name):
                found.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, _DEFS) and _public(item.name)
                ]
    return found


def _is_record(node: ast.ClassDef) -> bool:
    """Whether ``node`` is a dataclass or a NamedTuple."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def record_fields() -> list[tuple[str, str]]:
    """(where, field) of every field of the package's dataclasses and
    NamedTuples."""
    found = []
    for path in PACKAGE:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef) and _is_record(node):
                found += [
                    (f"{path.stem}.{node.name}.{item.target.id}", item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
    return found


def name_uses() -> Counter:
    """How often each name is named in code (not in a string or a comment)
    across the readers, its definitions' own ``def``/``class`` names left
    out."""
    uses = Counter()
    for path in READERS:
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
        uses.update(tok.string for tok in tokens if tok.type == tokenize.NAME)
        uses.subtract(node.name for node in ast.walk(_tree(path)) if isinstance(node, _DEFS))
    return uses


def attribute_reads() -> set[str]:
    """The attribute names read as ``.name`` across the readers."""
    return {
        node.attr
        for path in READERS
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_the_scan_sees_the_package():
    # a scan that finds nothing would pass both checks below
    names = {where for where, _ in definitions()}
    assert {"metrics.synthesize_tv_cir", "rays.PathRows", "rays.PathRows.take", "scene.Scene.segments_blocked"} <= names
    fields = {where for where, _ in record_fields()}
    assert {"rays.PathRows.transfer", "metrics.MetricError.nrmse", "specular.TraceLimits.rooftop"} <= fields
    assert name_uses()["synthesize_tv_cir"] > 0


def test_every_public_name_has_a_reader():
    uses = name_uses()
    unread = [where for where, name in definitions() if uses[name] <= 0]
    assert not unread, f"named only by their own definition: {unread}"


def test_every_record_field_is_read():
    reads = attribute_reads()
    unread = [where for where, field in record_fields() if field not in reads]
    assert not unread, f"fields never read as .field: {unread}"
