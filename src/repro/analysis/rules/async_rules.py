"""Async-serving rules: never block the event loop, never hold a
threading lock across an ``await``.

The serving tier (:class:`~repro.serve.server.ClusteringServer`, the
fleet router/supervisor) is a single asyncio loop; one blocking call in a
coroutine stalls every connection, health probe and drain in the process.
The discipline the code follows — numerical fits and matrix fingerprints
go through ``loop.run_in_executor`` (see
``ClusteringServer._in_executor``), subprocess work uses
``asyncio.subprocess``, sleeps use ``asyncio.sleep`` — is what these two
rules enforce mechanically.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, dotted_name, register_rule, walk_same_function

#: Fully-dotted calls that block the calling thread.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "socket.socket",
        "socket.getaddrinfo",
        "urllib.request.urlopen",
        "shutil.copyfile",
        "shutil.copy",
        "os.system",
    }
)

#: Any call rooted in these modules blocks (subprocess.run, requests.get,
#: ...).  ``asyncio.subprocess`` and ``asyncio.create_subprocess_*`` have
#: the root ``asyncio`` and never match.
_BLOCKING_ROOTS = frozenset({"subprocess", "requests"})

#: Bare-name calls that block (builtin file I/O and console input).
_BLOCKING_NAMES = frozenset({"open", "input"})

#: Method tails that run a clustering fit (or its fingerprint-and-lookup
#: half) synchronously; on the serving loop they must go through the
#: executor instead.
_FIT_TAILS = frozenset({"fit", "fit_predict", "lookup", "compute"})
#: Library front doors that fit or hash a whole matrix: a fit takes
#: milliseconds to seconds, and fingerprinting a 500-stock matrix ~1ms,
#: which on the loop would serialise every connection behind it.
_FIT_FRONT_DOORS = frozenset(
    {"tmfg_dbht", "result_cache_key", "matrix_fingerprint"}
)


def _async_functions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


@register_rule
class BlockingCallInAsync(Rule):
    """Flag synchronous blocking calls made directly inside ``async def``."""

    id = "async-blocking"
    description = (
        "a blocking call (time.sleep, file/socket I/O, subprocess.*, a "
        "direct estimator fit, lookup or compute, or a matrix fingerprint) inside "
        "an async def stalls the whole serving event loop"
    )
    hint = (
        "await the asyncio equivalent (asyncio.sleep, asyncio.subprocess, "
        "asyncio.open_connection) or run it via loop.run_in_executor as "
        "ClusteringServer._in_executor does"
    )

    def check_module(self, module) -> Iterable[Finding]:
        for function in _async_functions(module.tree):
            for node in walk_same_function(function):
                if not isinstance(node, ast.Call):
                    continue
                message = self._blocking_message(node)
                if message:
                    yield self.finding(
                        module,
                        node,
                        f"async def {function.name!r} {message}",
                    )

    @staticmethod
    def _blocking_message(call: ast.Call) -> str:
        dotted = dotted_name(call.func)
        if dotted in _BLOCKING_CALLS:
            return f"calls blocking {dotted}()"
        root = dotted.split(".", 1)[0] if dotted else ""
        if root in _BLOCKING_ROOTS:
            return f"calls blocking {dotted}() (module {root!r} is synchronous)"
        if isinstance(call.func, ast.Name) and call.func.id in _BLOCKING_NAMES:
            return f"calls blocking builtin {call.func.id}()"
        if dotted in _FIT_FRONT_DOORS or dotted.split(".")[-1] in _FIT_FRONT_DOORS:
            return f"runs the whole-matrix call {dotted}() on the event loop"
        if isinstance(call.func, ast.Attribute) and call.func.attr in _FIT_TAILS:
            return f"runs a synchronous estimator .{call.func.attr}() on the event loop"
        return ""


def _looks_like_lock(node: ast.AST) -> bool:
    """Whether an expression plausibly evaluates to a threading lock."""
    dotted = dotted_name(node)
    if dotted:
        tail = dotted.rsplit(".", 1)[-1].lower()
        if "lock" in tail or "mutex" in tail:
            return True
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee in ("threading.Lock", "threading.RLock", "threading.Semaphore",
                      "threading.BoundedSemaphore", "threading.Condition"):
            return True
        return _looks_like_lock(node.func)
    return False


@register_rule
class LockHeldAcrossAwait(Rule):
    """Flag a threading lock held while the coroutine suspends."""

    id = "lock-across-await"
    description = (
        "a threading.Lock/RLock acquired in a coroutine and held across an "
        "await: the loop suspends with the lock taken, and any executor "
        "thread contending for it deadlocks the service"
    )
    hint = (
        "release the lock before awaiting (copy what you need out of the "
        "critical section), or use asyncio.Lock with `async with`"
    )

    def check_module(self, module) -> Iterable[Finding]:
        for function in _async_functions(module.tree):
            yield from self._check_with_blocks(module, function)
            yield from self._check_acquire_release(module, function)

    def _check_with_blocks(self, module, function: ast.AsyncFunctionDef):
        # `with lock:` (synchronous With) whose body awaits.  `async with
        # asyncio.Lock()` is an AsyncWith node and never matches.
        for node in walk_same_function(function):
            if not isinstance(node, ast.With):
                continue
            lockish = [
                item.context_expr
                for item in node.items
                if _looks_like_lock(item.context_expr)
            ]
            if not lockish:
                continue
            awaits = [
                inner
                for stmt in node.body
                for inner in ast.walk(stmt)
                if isinstance(inner, (ast.Await, ast.AsyncFor, ast.AsyncWith))
            ]
            if awaits:
                held = dotted_name(lockish[0]) or "a lock"
                yield self.finding(
                    module,
                    node,
                    f"async def {function.name!r} holds {held} across an await "
                    f"(line {awaits[0].lineno})",
                )

    def _check_acquire_release(self, module, function: ast.AsyncFunctionDef):
        # Manual acquire()/release() pairs: flag an acquire on a lock-ish
        # receiver when an await happens before the matching release (a
        # line-ordered approximation — good enough to catch the pattern,
        # and suppressible where control flow proves otherwise).
        acquires: List[Tuple[str, ast.Call]] = []
        releases: Dict[str, List[int]] = {}
        await_lines: List[int] = []
        for node in walk_same_function(function):
            if isinstance(node, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
                await_lines.append(node.lineno)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                receiver = dotted_name(node.func.value)
                if not receiver or not _looks_like_lock(node.func.value):
                    continue
                if node.func.attr == "acquire":
                    acquires.append((receiver, node))
                elif node.func.attr == "release":
                    releases.setdefault(receiver, []).append(node.lineno)
        for receiver, call in acquires:
            released_after = [line for line in releases.get(receiver, []) if line > call.lineno]
            horizon = min(released_after) if released_after else None
            for await_line in sorted(await_lines):
                if await_line > call.lineno and (horizon is None or await_line < horizon):
                    yield self.finding(
                        module,
                        call,
                        f"async def {function.name!r} acquires {receiver} and awaits "
                        f"(line {await_line}) before releasing it",
                    )
                    break
