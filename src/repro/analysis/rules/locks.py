"""Lock-discipline rules: SZ002 (no I/O under a lock), SZ005 (lock
factory), SZ006 (mutators hold the owning lock)."""

from __future__ import annotations

import ast

from repro.analysis.engine import dotted_name
from repro.analysis.rules.base import Rule

#: calls that perform (or transitively wrap) blocking file I/O.  Exact
#: dotted names for stdlib entry points; bare method names only for this
#: repo's unmistakable I/O wrappers (``str.replace`` is why ``os.replace``
#: must be matched in full).
_IO_DOTTED = {
    "open",
    "os.replace",
    "os.remove",
    "os.unlink",
    "os.rename",
    "os.makedirs",
    "os.listdir",
    "os.fsync",
    "os.stat",
    "os.path.getsize",
    "mmap.mmap",
    "Segment.open",
    "seglib.Segment.open",
}
_IO_METHODS = {
    "load_segment",
    "flush_segment",
    "save_manifest",
    "remove_segment",
}

_LOCK_CONSTRUCTORS = {
    "threading.Lock",
    "threading.RLock",
    "Lock",
    "RLock",
    "make_lock",
    "make_rlock",
    "lockcheck.make_lock",
    "lockcheck.make_rlock",
}

#: attribute-method calls that mutate a container in place
_MUTATORS = {
    "append",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
    "move_to_end",
}


def _is_io_call(node: ast.Call) -> str | None:
    """The dotted I/O name when ``node`` is a blocking-I/O call, else None."""
    name = dotted_name(node.func)
    if name is None:
        return None
    if name in _IO_DOTTED:
        return name
    last = name.rsplit(".", 1)[-1]
    if last in _IO_METHODS:
        return name
    return None


def _self_attr(node: ast.AST) -> str | None:
    """``attr`` when node is exactly ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_attrs_of_class(cls: ast.ClassDef) -> set[str]:
    """Attributes assigned a lock in ``__init__`` (factory or raw)."""
    out: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                ctor = dotted_name(node.value.func)
                if ctor not in _LOCK_CONSTRUCTORS:
                    continue
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        out.add(attr)
    return out


def _walk_body(stmts):
    """Walk statements without descending into nested def/class bodies
    (their execution is deferred; they do not run under the ``with``)."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield stmt
        for child in ast.iter_child_nodes(stmt):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield from _walk_node(child)


def _walk_node(node):
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield from _walk_node(child)


class SZ002(Rule):
    id = "SZ002"
    title = "no blocking I/O while holding a serving-path lock"
    rationale = (
        "Segment opens, flushes, and unlinks run outside `with self._lock:` "
        "bodies: one thread's disk wait must never stall every borrower of "
        "the catalog/store lock (docs/serving.md, 'the catalog lock is held "
        "only for the cache bookkeeping')."
    )
    scope = ("core/", "storage/")

    def check(self, ctx):
        io_summary = self._transitive_io(ctx)
        for func_name, func in ctx.functions.items():
            # _walk_body skips nested defs — they have their own entry here
            for node in _walk_body(func.body):
                if not isinstance(node, ast.With):
                    continue
                lock_attr = None
                for item in node.items:
                    attr = _self_attr(item.context_expr)
                    if attr is not None and "lock" in attr:
                        lock_attr = attr
                        break
                if lock_attr is None:
                    continue
                for inner in _walk_body(node.body):
                    if not isinstance(inner, ast.Call):
                        continue
                    direct = _is_io_call(inner)
                    if direct is not None:
                        yield ctx.finding(
                            self.id,
                            inner,
                            f"blocking I/O ({direct}) inside "
                            f"`with self.{lock_attr}:` — run segment "
                            "opens/writes outside the lock",
                        )
                        continue
                    callee = self._resolve_local_call(ctx, func_name, inner)
                    if callee is not None and io_summary.get(callee):
                        reasons = ", ".join(sorted(io_summary[callee]))
                        yield ctx.finding(
                            self.id,
                            inner,
                            f"call to {callee}() inside "
                            f"`with self.{lock_attr}:` performs blocking "
                            f"I/O ({reasons}) — run it outside the lock",
                        )

    @staticmethod
    def _resolve_local_call(ctx, caller_scope: str, call: ast.Call) -> str | None:
        """Resolve ``self.m(...)`` to ``Class.m`` and ``f(...)`` to a
        module-level function of the same file; None for externals."""
        attr = _self_attr(call.func)
        if attr is not None:
            if "." in caller_scope:
                cls = caller_scope.rsplit(".", 1)[0]
                candidate = f"{cls}.{attr}"
                if candidate in ctx.functions:
                    return candidate
            return None
        if isinstance(call.func, ast.Name) and call.func.id in ctx.functions:
            return call.func.id
        return None

    @classmethod
    def _transitive_io(cls, ctx) -> dict[str, set[str]]:
        """Per function (dotted scope): the I/O calls it performs,
        directly or through same-module callees (fixpoint)."""
        direct: dict[str, set[str]] = {}
        calls: dict[str, set[str]] = {}
        for name, func in ctx.functions.items():
            direct[name] = set()
            calls[name] = set()
            for node in _walk_body(func.body):
                if not isinstance(node, ast.Call):
                    continue
                io_name = _is_io_call(node)
                if io_name is not None:
                    direct[name].add(io_name)
                    continue
                callee = cls._resolve_local_call(ctx, name, node)
                if callee is not None:
                    calls[name].add(callee)
        changed = True
        while changed:
            changed = False
            for name in direct:
                for callee in calls[name]:
                    extra = direct.get(callee, set()) - direct[name]
                    if extra:
                        direct[name] |= extra
                        changed = True
        return direct


class SZ005(Rule):
    id = "SZ005"
    title = "locks are constructed only via the lockcheck factory"
    rationale = (
        "repro.analysis.lockcheck.make_lock/make_rlock return plain locks "
        "normally and instrumented locks under REPRO_LOCKCHECK=1; a raw "
        "threading.Lock() is invisible to the lock-order validator."
    )
    scope = ()

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name not in ("threading.Lock", "threading.RLock"):
                # bare Lock()/RLock() only counts when imported from threading
                if name not in ("Lock", "RLock") or not self._imported_from_threading(
                    ctx, name
                ):
                    continue
            kind = "make_rlock" if (name or "").endswith("RLock") else "make_lock"
            yield ctx.finding(
                self.id,
                node,
                f"direct {name}() construction — use "
                f"repro.analysis.lockcheck.{kind}(name) so REPRO_LOCKCHECK "
                "can validate lock ordering",
            )

    @staticmethod
    def _imported_from_threading(ctx, name: str) -> bool:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "threading":
                if any(alias.name == name for alias in node.names):
                    return True
        return False


class SZ006(Rule):
    id = "SZ006"
    title = "public mutating methods of lock-owning classes hold their lock"
    rationale = (
        "A class that constructs a lock declares shared mutable state; a "
        "public method that mutates `self` outside every `with self.<lock>:` "
        "block is a data race waiting for the serving workload that hits it."
    )
    scope = ("core/", "storage/")

    def check(self, ctx):
        for cls_name, cls in ctx.classes.items():
            lock_attrs = _lock_attrs_of_class(cls)
            if not lock_attrs:
                continue
            for stmt in cls.body:
                if not isinstance(stmt, ast.FunctionDef):
                    continue
                if stmt.name.startswith("_"):
                    continue  # dunder + private: callers hold the lock
                if self._is_non_instance(stmt):
                    continue
                node = self._first_unlocked_mutation(stmt, lock_attrs)
                if node is not None:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"public method {cls_name}.{stmt.name}() mutates "
                        "self outside every "
                        f"`with self.{{{ '|'.join(sorted(lock_attrs)) }}}:` "
                        "block",
                    )

    @staticmethod
    def _is_non_instance(func: ast.FunctionDef) -> bool:
        for deco in func.decorator_list:
            name = dotted_name(deco) or ""
            if name.rsplit(".", 1)[-1] in (
                "staticmethod",
                "classmethod",
                "property",
                "cached_property",
            ):
                return True
        return False

    @classmethod
    def _first_unlocked_mutation(
        cls, func: ast.FunctionDef, lock_attrs: set[str]
    ) -> ast.AST | None:
        return cls._scan(func.body, lock_attrs, locked=False)

    @classmethod
    def _scan(cls, stmts, lock_attrs: set[str], locked: bool) -> ast.AST | None:
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.With):
                inner_locked = locked or any(
                    (_self_attr(item.context_expr) or "") in lock_attrs
                    for item in stmt.items
                )
                hit = cls._scan(stmt.body, lock_attrs, inner_locked)
                if hit is not None:
                    return hit
                continue
            if not locked:
                hit = cls._mutation_in(stmt)
                if hit is not None:
                    return hit
            # recurse into compound statements (if/for/try/...) at the
            # same lock state
            for field_name in ("body", "orelse", "finalbody"):
                body = getattr(stmt, field_name, None)
                if body:
                    hit = cls._scan(body, lock_attrs, locked)
                    if hit is not None:
                        return hit
            for handler in getattr(stmt, "handlers", ()):
                hit = cls._scan(handler.body, lock_attrs, locked)
                if hit is not None:
                    return hit
        return None

    @staticmethod
    def _mutation_in(stmt: ast.stmt) -> ast.AST | None:
        """The first self-mutation in this single statement (ignoring
        nested compound bodies, which the caller scans separately)."""

        def roots_at_self(node: ast.AST) -> bool:
            while isinstance(node, (ast.Attribute, ast.Subscript)):
                node = node.value
            return isinstance(node, ast.Name) and node.id == "self"

        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                for elt in elts:
                    if isinstance(
                        elt, (ast.Attribute, ast.Subscript)
                    ) and roots_at_self(elt):
                        return stmt
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and roots_at_self(target):
                    return stmt
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, (ast.Attribute, ast.Subscript))
                and roots_at_self(func.value)
            ):
                return stmt
        return None
