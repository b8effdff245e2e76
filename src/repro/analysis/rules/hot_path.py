"""Hidden-copy rule for the zero-copy wire -> cache data path.

The serve data path runs on the buffer protocol: a binary request body is
decoded as a read-only ``np.frombuffer`` view (`serve/wire.py`),
fingerprinted straight through ``memoryview`` (`cache/fingerprint.py`)
and routed by content key (`serve/fleet/ring.py`).  One stray
``.tobytes()`` or ``np.ascontiguousarray`` on that path silently doubles
the per-request memory traffic at large n — exactly the kind of
regression a refactor introduces without failing any test.

This rule flags byte-copying calls inside the hot-path modules.  Copies
that are *inherent* (an encoder must materialise a C-order buffer; a
non-contiguous array cannot be hashed through ``memoryview``) stay, with
a ``# repro: allow[hot-path-copy]`` pragma and a justification.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, dotted_name, register_rule

#: Modules on the zero-copy path, matched by relpath suffix so fixture
#: trees (and alternate checkouts) are covered too.
HOT_PATH_SUFFIXES = (
    "serve/wire.py",
    "cache/fingerprint.py",
    "serve/fleet/ring.py",
)

#: numpy constructors that materialise a copy.  ``np.asarray`` and
#: ``np.frombuffer`` are the non-copying spellings and stay legal.
_COPYING_CONSTRUCTORS = frozenset(
    {
        "np.ascontiguousarray",
        "numpy.ascontiguousarray",
        "np.array",
        "numpy.array",
        "np.copy",
        "numpy.copy",
    }
)

#: Method calls that duplicate an array's bytes.
_COPYING_METHODS = frozenset({"tobytes", "copy"})


def is_hot_path(relpath: str) -> bool:
    normalized = relpath.replace("\\", "/")
    return any(normalized.endswith(suffix) for suffix in HOT_PATH_SUFFIXES)


@register_rule
class HiddenCopyOnHotPath(Rule):
    """Flag byte-copying calls in the zero-copy serve/cache modules."""

    id = "hot-path-copy"
    description = (
        "a byte-copying call (.tobytes(), .copy(), np.array/ascontiguousarray) "
        "inside a zero-copy hot-path module (serve/wire.py, cache/fingerprint.py, "
        "serve/fleet/ring.py) doubles per-request memory traffic"
    )
    hint = (
        "stay on the buffer protocol (memoryview / np.asarray / np.frombuffer); "
        "if the copy is inherent to the operation, pragma it with a one-line "
        "justification: # repro: allow[hot-path-copy]"
    )

    def check_module(self, module) -> Iterable[Finding]:
        if not is_hot_path(module.relpath):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted in _COPYING_CONSTRUCTORS:
                if dotted.endswith(".array") and self._copy_disabled(node):
                    continue
                yield self.finding(
                    module, node, f"{dotted}() materialises a copy on the zero-copy path"
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _COPYING_METHODS
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    module,
                    node,
                    f".{node.func.attr}() duplicates the buffer on the zero-copy path",
                )

    @staticmethod
    def _copy_disabled(call: ast.Call) -> bool:
        """``np.array(x, copy=False)`` is explicitly non-copying."""
        for keyword in call.keywords:
            if keyword.arg == "copy" and isinstance(keyword.value, ast.Constant):
                return keyword.value.value is False
        return False
