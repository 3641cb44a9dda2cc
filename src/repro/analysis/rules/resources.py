"""Resource-pairing rules: SZ001 (acquire/borrow released on all paths),
SZ003 (tmp-file writes clean up on failure)."""

from __future__ import annotations

import ast

from repro.analysis.engine import dotted_name
from repro.analysis.rules.base import Rule

#: method names whose call site takes a pinned resource or a semaphore slot
_ACQUIRERS = {"acquire", "borrow"}
#: method names that give one back
_RELEASERS = {"release", "close"}
#: enclosing-function names allowed to return an un-released resource:
#: they *are* the acquisition API, or they hand ownership to their caller
_OWNERSHIP_FORWARDERS = {"acquire", "borrow", "__enter__"}


def _call_method(node: ast.Call) -> str | None:
    """``attr`` for a call of shape ``<expr>.attr(...)``, else None."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


class SZ001(Rule):
    id = "SZ001"
    title = "acquire()/borrow() results are released on every path"
    rationale = (
        "Catalog records are pinned (`borrow`/`release`) and their count "
        "closes the mappings; semaphores pair `acquire`/`release`.  A leaked "
        "pin holds an mmap and a file for the life of the process, defeating the "
        "cache's eviction budget.  A call whose result neither escapes nor reaches a "
        "release on the failure path is a leak."
    )
    scope = ()

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            method = _call_method(node)
            if method not in _ACQUIRERS:
                continue
            # an acquisition API (or an opener) handing the resource to its
            # caller is the implementation, not a leak site
            func = ctx.enclosing_function(node)
            if func is not None and (
                func.name in _OWNERSHIP_FORWARDERS
                or func.name.startswith("open")
                or func.name.startswith("_open")
            ):
                continue
            if self._is_safe(ctx, node):
                continue
            yield ctx.finding(
                self.id,
                node,
                f".{method}() result is neither released on the failure "
                "path nor handed off — wrap in try/finally with "
                f"`.{'release' if method == 'borrow' else 'close'}()` or "
                "use a pin-scope (QuerySession)",
            )

    def _is_safe(self, ctx, call: ast.Call) -> bool:
        parent = ctx.parent(call)
        # `with x.acquire():` / `return x.borrow()` / `yield ...` hand the
        # resource to a manager or to the caller
        if isinstance(parent, (ast.withitem, ast.Return, ast.Yield, ast.YieldFrom)):
            return True
        # value used directly as an argument / element / dict value /
        # attribute-subscript store: ownership escapes to the container
        if isinstance(
            parent,
            (ast.Call, ast.Tuple, ast.List, ast.Set, ast.Dict, ast.Starred),
        ):
            return True
        if isinstance(parent, ast.Attribute):
            # chained call like catalog.borrow(...).store — resource still
            # reachable only through the chain; treat conservatively as safe
            # only when the chain itself escapes (common: `.store` reads)
            return True
        if isinstance(parent, ast.Assign):
            return self._assigned_name_safe(ctx, parent, call)
        return False

    def _assigned_name_safe(self, ctx, assign: ast.Assign, call: ast.Call) -> bool:
        """An assigned resource is safe when the name escapes the function
        or a release appears in a finally/except body."""
        if len(assign.targets) != 1:
            return True  # tuple-unpack targets: too dynamic to judge
        target = assign.targets[0]
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            return True  # stored onto an object: owner releases it
        if not isinstance(target, ast.Name):
            return True
        name = target.id
        func = ctx.enclosing_function(call)
        scope_body = func.body if func is not None else ctx.tree.body
        return self._name_escapes(scope_body, name, assign) or self._released_on_failure(
            scope_body, name
        )

    @staticmethod
    def _name_escapes(body, name: str, assign: ast.Assign) -> bool:
        """True when ``name`` is passed to a call, stored into a container /
        attribute, returned, yielded, or aliased after the assignment."""
        for stmt in body:
            for node in ast.walk(stmt):
                if node is assign:
                    continue
                if isinstance(node, ast.Call):
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        for sub in ast.walk(arg):
                            if isinstance(sub, ast.Name) and sub.id == name:
                                return True
                if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                    value = node.value
                    if value is not None:
                        for sub in ast.walk(value):
                            if isinstance(sub, ast.Name) and sub.id == name:
                                return True
                if isinstance(node, ast.Assign):
                    # alias or store: rec = x / self._map[k] = x / lst = [x]
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Name) and sub.id == name:
                            return True
        return False

    @staticmethod
    def _released_on_failure(body, name: str) -> bool:
        """A ``name.release()``/``name.close()``/``X.release(name)`` inside
        any finally or except body in the scope."""

        def has_release(stmts) -> bool:
            for stmt in stmts:
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    method = _call_method(node)
                    if method in _RELEASERS:
                        # name.release() / name.close()
                        base = node.func.value
                        if isinstance(base, ast.Name) and base.id == name:
                            return True
                        # catalog.release(name)
                        for arg in node.args:
                            if isinstance(arg, ast.Name) and arg.id == name:
                                return True
            return False

        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Try):
                    if node.finalbody and has_release(node.finalbody):
                        return True
                    for handler in node.handlers:
                        if has_release(handler.body):
                            return True
        return False


class SZ003(Rule):
    id = "SZ003"
    title = "tmp-file writes clean up their tmp on failure"
    rationale = (
        "The store format's atomicity contract is tmp-write + os.replace; "
        "a write that dies between `open(tmp, 'w')` and the rename must "
        "unlink the tmp in a finally/except, or crashed runs litter the "
        "store directory with half-written segments that the next open "
        "may mistake for data."
    )
    scope = ()

    _WRITE_MODES = ("w", "wb", "w+", "wb+", "x", "xb", "a", "ab")

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_tmp_write(node):
                continue
            if self._cleanup_guard(ctx, node):
                continue
            yield ctx.finding(
                self.id,
                node,
                "tmp-file write without failure cleanup — wrap in "
                "try/except (or finally) that os.remove()s the tmp before "
                "re-raising, then os.replace() into place",
            )

    def _is_tmp_write(self, call: ast.Call) -> bool:
        name = dotted_name(call.func)
        if name != "open" or len(call.args) < 2:
            return False
        mode = call.args[1]
        if not (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and mode.value in self._WRITE_MODES
        ):
            return False
        return self._mentions_tmp(call.args[0])

    @staticmethod
    def _mentions_tmp(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if "tmp" in sub.value.lower():
                    return True
            if isinstance(sub, ast.Name) and "tmp" in sub.id.lower():
                return True
            if isinstance(sub, ast.Attribute) and "tmp" in sub.attr.lower():
                return True
        return False

    def _cleanup_guard(self, ctx, call: ast.Call) -> bool:
        """True when an enclosing Try has a finally/except that unlinks."""

        def unlinks(stmts) -> bool:
            for stmt in stmts:
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    name = dotted_name(node.func) or ""
                    if name in ("os.remove", "os.unlink"):
                        return True
                    if name.endswith(".unlink"):  # pathlib
                        return True
            return False

        for anc in ctx.ancestors(call):
            if isinstance(anc, ast.Try):
                if anc.finalbody and unlinks(anc.finalbody):
                    return True
                for handler in anc.handlers:
                    if unlinks(handler.body):
                        return True
        return False
