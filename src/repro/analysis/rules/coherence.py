"""Config/fingerprint/CLI coherence — the cross-module cache-key rule.

The content-addressed result cache (PR 4) keys on
``ClusteringConfig.to_dict()`` minus the explicit cache knobs.  That
makes correctness a *bookkeeping* property spread over three files:

* ``api/config.py`` — the ``ClusteringConfig`` dataclass fields;
* ``cache/fingerprint.py`` — ``FINGERPRINT_FIELDS`` (the fields the key
  consumes) and ``CACHE_KNOB_FIELDS`` (the explicit exclusion list);
* ``cli.py`` — ``_config_from_args``'s flag wiring, ``_FLAG_SPELLINGS``
  (error-message flag spellings) and ``_CONFIG_FILE_ONLY_FIELDS`` (knobs
  deliberately reachable only through ``--config`` files).

The bookkeeping is easy to miss in both directions: a new field must be
threaded through the fingerprint and the CLI by hand, and a deleted one
must leave all three files.  Only annotated class-body names are fields
(a plain class constant such as ``ClusteringConfig.apsp_method`` is not
serialized, so it is not one).  This rule re-derives the three
inventories from the ASTs and flags every mismatch:

* a config field neither in ``FINGERPRINT_FIELDS`` nor in
  ``CACHE_KNOB_FIELDS`` (a knob that could silently share cache entries
  across different results — the worst failure mode);
* a stale name in either fingerprint tuple (or a field in both);
* a config field with no CLI wiring (not assigned in
  ``_config_from_args`` and not listed config-file-only);
* a stale field name in the CLI's spellings/exclusions.

The rule is project-scoped and anchors on content, not paths: any module
defining ``class ClusteringConfig`` is the config, any module assigning
``CACHE_KNOB_FIELDS`` is the fingerprint, any module assigning
``_FLAG_SPELLINGS`` is the CLI — so fixture copies under ``tests/`` are
checked by the same code that checks the real tree.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register_rule, string_tuple


def _module_assign(tree: ast.AST, name: str) -> Optional[ast.AST]:
    """The value node of a module-level ``name = ...`` assignment."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == name:
                return node.value
    return None


def _config_fields(class_node: ast.ClassDef) -> Dict[str, int]:
    """Dataclass field name -> lineno from the class body's AnnAssigns."""
    fields: Dict[str, int] = {}
    for node in class_node.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            fields[node.target.id] = node.lineno
    return fields


def _find_config_class(project) -> Optional[Tuple[object, ast.ClassDef]]:
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == "ClusteringConfig":
                return module, node
    return None


def _find_module_with(project, name: str):
    for module in project.modules:
        value = _module_assign(module.tree, name)
        if value is not None:
            return module, value
    return None, None


def _changes_keys(cli_tree: ast.AST) -> Dict[str, int]:
    """Field names assigned as ``changes["field"] = ...`` in the CLI."""
    keys: Dict[str, int] = {}
    for node in ast.walk(cli_tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id == "changes"
            ):
                index = target.slice
                if isinstance(index, ast.Constant) and isinstance(index.value, str):
                    keys.setdefault(index.value, node.lineno)
    return keys


def _flag_spellings(value_node: ast.AST) -> List[Tuple[str, int]]:
    """The field names (with linenos) from the ``_FLAG_SPELLINGS`` pairs."""
    spellings: List[Tuple[str, int]] = []
    if not isinstance(value_node, (ast.Tuple, ast.List)):
        return spellings
    for pair in value_node.elts:
        if (
            isinstance(pair, (ast.Tuple, ast.List))
            and pair.elts
            and isinstance(pair.elts[0], ast.Constant)
            and isinstance(pair.elts[0].value, str)
        ):
            spellings.append((pair.elts[0].value, pair.elts[0].lineno))
    return spellings


@register_rule
class ConfigFingerprintCoherence(Rule):
    """Cross-check ClusteringConfig fields vs fingerprint and CLI wiring."""

    id = "config-fingerprint"
    description = (
        "every ClusteringConfig field must be consumed by the cache "
        "fingerprint (FINGERPRINT_FIELDS) or explicitly excluded "
        "(CACHE_KNOB_FIELDS), and must be reachable from the CLI "
        "(_config_from_args or _CONFIG_FILE_ONLY_FIELDS) — otherwise a new "
        "knob can silently alias cache entries or become unreachable"
    )
    scope = "project"
    hint = (
        "add the field to FINGERPRINT_FIELDS in cache/fingerprint.py (or to "
        "CACHE_KNOB_FIELDS if it never changes results), and wire its CLI "
        "flag in _config_from_args (or list it in _CONFIG_FILE_ONLY_FIELDS)"
    )

    def check_project(self, project) -> Iterable[Finding]:
        anchor = _find_config_class(project)
        if anchor is None:
            return  # no config in this tree: rule not applicable
        config_module, class_node = anchor
        fields = _config_fields(class_node)
        yield from self._check_fingerprint(project, config_module, class_node, fields)
        yield from self._check_cli(project, config_module, fields)

    # -- fingerprint side --------------------------------------------------

    def _check_fingerprint(self, project, config_module, class_node, fields):
        knobs_module, knobs_value = _find_module_with(project, "CACHE_KNOB_FIELDS")
        if knobs_module is None:
            # Config without any fingerprint module in the scanned tree
            # (e.g. linting a subpackage): nothing to cross-check.
            return
        fingerprint_module, fingerprint_value = _find_module_with(
            project, "FINGERPRINT_FIELDS"
        )
        knob_entries = string_tuple(knobs_value) or []
        if fingerprint_module is None or fingerprint_value is None:
            yield Finding(
                path=knobs_module.relpath,
                line=1,
                col=0,
                rule=self.id,
                message=(
                    "CACHE_KNOB_FIELDS exists but FINGERPRINT_FIELDS is missing: "
                    "the fingerprint's field coverage is unaccounted"
                ),
                hint=self.hint,
            )
            return
        fingerprint_entries = string_tuple(fingerprint_value) or []
        consumed = {name for name, _ in fingerprint_entries}
        excluded = {name for name, _ in knob_entries}
        for name, line in sorted(fields.items(), key=lambda item: item[1]):
            if name not in consumed and name not in excluded:
                yield Finding(
                    path=config_module.relpath,
                    line=line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"ClusteringConfig field {name!r} is neither consumed by the "
                        "cache fingerprint (FINGERPRINT_FIELDS) nor explicitly "
                        "excluded (CACHE_KNOB_FIELDS)"
                    ),
                    hint=self.hint,
                )
        for name, line in fingerprint_entries + knob_entries:
            if name not in fields:
                yield Finding(
                    path=fingerprint_module.relpath if name in consumed else knobs_module.relpath,
                    line=line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"fingerprint accounting names {name!r}, which is not a "
                        "ClusteringConfig field (stale entry?)"
                    ),
                    hint=self.hint,
                )
        for name in sorted(consumed & excluded):
            yield Finding(
                path=fingerprint_module.relpath,
                line=1,
                col=0,
                rule=self.id,
                message=(
                    f"{name!r} appears in both FINGERPRINT_FIELDS and "
                    "CACHE_KNOB_FIELDS; a field is consumed or excluded, never both"
                ),
                hint=self.hint,
            )

    # -- CLI side ----------------------------------------------------------

    def _check_cli(self, project, config_module, fields):
        cli_module, spellings_value = _find_module_with(project, "_FLAG_SPELLINGS")
        if cli_module is None:
            return  # no CLI in the scanned tree
        changes = _changes_keys(cli_module.tree)
        _only_module, only_value = _find_module_with(project, "_CONFIG_FILE_ONLY_FIELDS")
        config_file_only = dict(string_tuple(only_value) or []) if only_value is not None else {}
        for name, line in _flag_spellings(spellings_value):
            if name not in fields:
                yield Finding(
                    path=cli_module.relpath,
                    line=line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"_FLAG_SPELLINGS names {name!r}, which is not a "
                        "ClusteringConfig field (stale flag spelling)"
                    ),
                    hint=self.hint,
                )
        for name, line in sorted(changes.items(), key=lambda item: item[1]):
            if name not in fields:
                yield Finding(
                    path=cli_module.relpath,
                    line=line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"_config_from_args assigns changes[{name!r}], which is not "
                        "a ClusteringConfig field"
                    ),
                    hint=self.hint,
                )
        for name, line in config_file_only.items():
            if name not in fields:
                yield Finding(
                    path=cli_module.relpath,
                    line=line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"_CONFIG_FILE_ONLY_FIELDS names {name!r}, which is not a "
                        "ClusteringConfig field (stale exclusion)"
                    ),
                    hint=self.hint,
                )
            elif name in changes:
                yield Finding(
                    path=cli_module.relpath,
                    line=line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"{name!r} is listed config-file-only but _config_from_args "
                        "wires a flag for it; drop the exclusion"
                    ),
                    hint=self.hint,
                )
        for name, line in sorted(fields.items(), key=lambda item: item[1]):
            if name not in changes and name not in config_file_only:
                yield Finding(
                    path=config_module.relpath,
                    line=line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"ClusteringConfig field {name!r} has no CLI wiring: it is "
                        "not assigned in _config_from_args and not listed in "
                        "_CONFIG_FILE_ONLY_FIELDS"
                    ),
                    hint=self.hint,
                )
