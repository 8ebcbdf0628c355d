"""``snapshot-completeness``: every bit of mutable state survives migration.

:class:`~repro.serving.streaming.MonitorState` is the unit of live
resharding — PR 5's zero-loss migration guarantee only holds while the
snapshot really is *complete*.  A new ``self._x`` added to a streaming
class's ``__init__`` but forgotten in ``snapshot()`` produces a monitor that
revives subtly wrong after its next migration, and nothing crashes.  This
rule makes that a commit-time error, twice over:

1. **Completeness** — in any class defining both ``snapshot()`` and
   ``from_snapshot()``, every attribute assigned on ``self`` in
   ``__init__`` must be read somewhere in ``snapshot()``, unless it is
   listed in the class's ``_SNAPSHOT_EXCLUDE`` tuple (the documented,
   reviewable way to say "derived/stateless, recomputed on revive").

2. **Version pinning** — the layouts of the committed snapshot value
   classes are fingerprinted in :data:`DEFAULT_SNAPSHOT_REGISTRY`.  Changing
   a registered class's field set without bumping the matching
   ``*_STATE_VERSION`` constant (and consciously re-pinning the registry) is
   an error: an old pickle must never be silently misread by a new build.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.analysis.framework import Finding, ModuleSource, Rule

__all__ = ["SnapshotSpec", "DEFAULT_SNAPSHOT_REGISTRY", "SnapshotCompletenessRule"]


@dataclass(frozen=True)
class SnapshotSpec:
    """Pinned layout of one snapshot value class."""

    #: Name of the guarding version constant (module-level int).
    version_const: str
    #: The version the pinned field set belongs to.
    version: int
    #: The exact, ordered field names of the class at that version.
    fields: Tuple[str, ...]


#: The committed snapshot layouts of the serving stack.  Editing any of the
#: pinned classes' fields requires bumping the guarding ``*_STATE_VERSION``
#: constant *and* re-pinning the entry here — two deliberate edits for one
#: incompatible layout change.  ``PeakDetectorState`` and ``WindowerState``
#: are nested inside ``MonitorState`` pickles, so they are guarded by
#: ``MONITOR_STATE_VERSION`` too.
DEFAULT_SNAPSHOT_REGISTRY: Dict[str, SnapshotSpec] = {
    # Version 3: the lossy transport mode added the gap counters
    # ``MonitorState.n_gaps`` / ``MonitorState.windows_lost`` and the
    # adaptive-level seed anchor ``PeakDetectorState.seed_from`` (where the
    # post-gap level re-seed window starts).  Version 4: pending windows
    # carry their beat arrays until a drain featurises them, and
    # ``MonitorState.n_usable`` is gone.  Version 5:
    # ``WindowerState.base_beat_index`` is gone.  The nested states share the
    # guard constant, so all three entries are re-pinned at the bumped
    # version (``MonitorState``'s fields are unchanged since version 4,
    # ``PeakDetectorState``'s since version 3).
    "MonitorState": SnapshotSpec(
        version_const="MONITOR_STATE_VERSION",
        version=5,
        fields=(
            "version",
            "patient_id",
            "fs",
            "detector",
            "windower",
            "sequence",
            "n_windows",
            "pending",
            "n_gaps",
            "windows_lost",
        ),
    ),
    "PeakDetectorState": SnapshotSpec(
        version_const="MONITOR_STATE_VERSION",
        version=5,
        fields=(
            "fs",
            "params",
            "buffer",
            "buffer_start",
            "n_seen",
            "finalized",
            "level",
            "last_peak",
            "seed_from",
        ),
    ),
    "WindowerState": SnapshotSpec(
        version_const="MONITOR_STATE_VERSION",
        version=5,
        fields=(
            "params",
            "beat_times_s",
            "r_amplitudes_mv",
            "window_start_s",
            "clock_s",
        ),
    ),
}


def _self_attribute_writes(func: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> Dict[str, int]:
    """``self.<attr>`` names assigned anywhere in ``func`` → first line."""
    writes: Dict[str, int] = {}
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                writes.setdefault(target.attr, target.lineno)
    return writes


def _self_attribute_reads(func: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> Set[str]:
    """``self.<attr>`` names referenced anywhere in ``func``."""
    reads: Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            reads.add(node.attr)
    return reads


def _string_tuple(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """Literal tuple/list of strings, or ``None`` when not that shape."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        values.append(element.value)
    return tuple(values)


def _module_int_constants(tree: ast.Module) -> Dict[str, int]:
    """Module-level ``NAME = <int literal>`` assignments."""
    constants: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, int)
                and not isinstance(value.value, bool)
            ):
                constants[target.id] = value.value
    return constants


def _dataclass_fields(cls: ast.ClassDef) -> Tuple[str, ...]:
    """Annotated field names of a (data)class body, in declaration order."""
    fields = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            fields.append(node.target.id)
    return tuple(fields)


class SnapshotCompletenessRule(Rule):
    """Init-state must reach ``snapshot()``; pinned layouts must stay pinned."""

    rule_id = "snapshot-completeness"
    description = (
        "every __init__-assigned attribute of a snapshot-capable class is "
        "captured (or explicitly excluded), and pinned snapshot layouts only "
        "change together with their *_STATE_VERSION"
    )
    invariant = (
        "zero-loss live migration: MonitorState snapshots are complete and "
        "version-guarded (ROADMAP: resharding is invisible in output)"
    )

    exclude_attr = "_SNAPSHOT_EXCLUDE"

    def __init__(self, registry: Optional[Dict[str, SnapshotSpec]] = None) -> None:
        self.registry = DEFAULT_SNAPSHOT_REGISTRY if registry is None else registry

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        constants = _module_int_constants(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_completeness(module, node))
                findings.extend(self._check_registry(module, node, constants))
        return findings

    # ---------------------------------------------------------- completeness
    def _check_completeness(
        self, module: ModuleSource, cls: ast.ClassDef
    ) -> Iterable[Finding]:
        methods = {
            item.name: item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        init = methods.get("__init__")
        snapshot = methods.get("snapshot")
        if init is None or snapshot is None or "from_snapshot" not in methods:
            return
        excluded: Tuple[str, ...] = ()
        for item in cls.body:
            if (
                isinstance(item, ast.Assign)
                and len(item.targets) == 1
                and isinstance(item.targets[0], ast.Name)
                and item.targets[0].id == self.exclude_attr
            ):
                literal = _string_tuple(item.value)
                if literal is None:
                    yield self.finding(
                        module,
                        item,
                        "%s.%s must be a literal tuple of attribute-name strings"
                        % (cls.name, self.exclude_attr),
                        "spell the excluded attribute names out as string literals",
                    )
                else:
                    excluded = literal
        captured = _self_attribute_reads(snapshot)
        for attr, lineno in sorted(_self_attribute_writes(init).items(), key=lambda kv: kv[1]):
            if attr in captured or attr in excluded:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=module.path,
                line=lineno,
                col=0,
                message=(
                    "%s.__init__ assigns self.%s but %s.snapshot() never captures it"
                    % (cls.name, attr, cls.name)
                ),
                hint=(
                    "add the attribute to the snapshot state (and bump the state "
                    "version), or list it in %s.%s with a comment explaining why "
                    "it is derived/stateless" % (cls.name, self.exclude_attr)
                ),
            )

    # --------------------------------------------------------- version pinning
    def _check_registry(
        self, module: ModuleSource, cls: ast.ClassDef, constants: Dict[str, int]
    ) -> Iterable[Finding]:
        spec = self.registry.get(cls.name)
        if spec is None:
            return
        fields = _dataclass_fields(cls)
        declared_version = constants.get(spec.version_const)
        if fields != spec.fields:
            if declared_version is None or declared_version == spec.version:
                yield self.finding(
                    module,
                    cls,
                    "%s's field set changed (now %s, pinned %s) without bumping %s"
                    % (cls.name, list(fields), list(spec.fields), spec.version_const),
                    "bump %s and re-pin the new layout in "
                    "repro.analysis.rules.snapshots.DEFAULT_SNAPSHOT_REGISTRY"
                    % spec.version_const,
                )
            else:
                yield self.finding(
                    module,
                    cls,
                    "%s's layout changed and %s was bumped to %d, but the pinned "
                    "registry still records version %d"
                    % (cls.name, spec.version_const, declared_version, spec.version),
                    "re-pin the new (version, fields) in "
                    "repro.analysis.rules.snapshots.DEFAULT_SNAPSHOT_REGISTRY",
                )
        elif declared_version is not None and declared_version != spec.version:
            yield self.finding(
                module,
                cls,
                "%s is %d but the snapshot registry pins %s at version %d"
                % (spec.version_const, declared_version, cls.name, spec.version),
                "a version bump without a layout change is suspicious; update "
                "DEFAULT_SNAPSHOT_REGISTRY if the bump is intentional",
            )
