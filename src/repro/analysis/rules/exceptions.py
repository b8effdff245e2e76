"""Swallowed-exception rule for the supervision and restart paths.

The fleet supervisor, router failover, and cache degradation paths all
legitimately catch broad exception classes — but each one either
re-raises, logs a diagnostic, or counts the event in a metric, so a
production incident leaves a trace.  A broad handler that does none of
those turns crashes into silence: a replica that never restarts, a cache
that quietly stops persisting, a router that eats errors.

The rule flags ``except:``, ``except Exception:`` and ``except
BaseException:`` handlers whose body performs no observable action — no
``raise``, no call statement (logging, counting, cleanup), no counter
update.  Handlers that only ``pass``/``continue`` or return a constant
fallback are exactly the silent-swallow shape.  Deliberate best-effort
handlers carry a ``# repro: allow[swallowed-exception]`` pragma with a
justification.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register_rule

_BROAD = frozenset({"Exception", "BaseException"})


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except:
    names = []
    if isinstance(handler.type, ast.Tuple):
        names = [element for element in handler.type.elts]
    else:
        names = [handler.type]
    for node in names:
        if isinstance(node, ast.Name) and node.id in _BROAD:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _BROAD:
            return True
    return False


def _walk_handler(body) -> Iterable[ast.AST]:
    """Walk handler statements without entering nested function scopes."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _handles_the_error(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body re-raises, logs, counts, or otherwise acts."""
    for node in _walk_handler(handler.body):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.AugAssign):
            return True  # counter update (stats.errors += 1)
        if isinstance(node, ast.Expr) and isinstance(node.value, (ast.Call, ast.Await)):
            return True  # a statement-level call: logging, cleanup, metric
        if isinstance(node, ast.Assert):
            return True
        # Reading the bound exception (`except ... as e:` then str(e),
        # returning an error payload, stashing it on self) surfaces the
        # error to a caller rather than discarding it.
        if (
            handler.name is not None
            and isinstance(node, ast.Name)
            and node.id == handler.name
            and isinstance(node.ctx, ast.Load)
        ):
            return True
    return False


@register_rule
class SwallowedException(Rule):
    """Flag broad except handlers that silently discard the error."""

    id = "swallowed-exception"
    description = (
        "a bare/over-broad except (Exception/BaseException) that neither "
        "re-raises, logs, nor counts turns crashes into silence on the "
        "supervisor/router restart and cache degradation paths"
    )
    hint = (
        "narrow the exception types, or record the failure (log tail, stats "
        "counter, re-raise); deliberate best-effort probes get "
        "# repro: allow[swallowed-exception] plus a justification"
    )

    def check_module(self, module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node):
                continue
            if _handles_the_error(node):
                continue
            caught = "bare except" if node.type is None else "broad except"
            yield self.finding(
                module,
                node,
                f"{caught} swallows the error: the handler neither re-raises, "
                "logs, nor counts it",
            )
