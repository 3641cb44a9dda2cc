"""Rule-engine core for the repo-invariant linter (``python -m repro.analysis``).

The serving core's correctness rests on contracts no general-purpose linter
knows about: catalog ``borrow``/``release`` pinning (the record's count
closes the mappings), "segment opens run outside the catalog
lock", tmp-write + atomic rename, "storage never leaks a raw ``OSError``".
This engine machine-checks them: it walks the package AST once per file and
hands each module to a set of repo-specific rules
(:mod:`repro.analysis.rules`), then filters the findings through two
suppression layers:

* **Inline suppressions** — ``# szlint: ignore[SZ001] -- reason`` on the
  finding's line (or on a comment line directly above it).  The reason is
  mandatory: a suppression without one is itself reported (SZ000), because
  an unexplained exemption is exactly the reviewer-eyeball fragility this
  tool exists to remove.  Comments are found with :mod:`tokenize`, so the
  syntax appearing inside a docstring (like this one) is inert.
* **A committed JSON baseline** — grandfathered findings keyed by
  ``(rule, path, symbol)`` (line numbers shift; symbols rarely do), each
  with a mandatory one-line justification.  New findings fail the run;
  baselined ones are reported as such; baseline entries that no longer
  match anything are listed as stale so the file shrinks over time.

Output formats: ``text`` (human), ``json`` (tooling), ``github`` (workflow
commands that annotate the PR diff).  Exit status is the contract CI gates
on: 0 when every finding is suppressed or baselined, 1 otherwise.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field

__all__ = [
    "Baseline",
    "Finding",
    "ModuleContext",
    "Report",
    "dotted_name",
    "format_report",
    "iter_python_files",
    "run",
]

#: rule id for engine-level findings (malformed suppression comments)
META_RULE = "SZ000"

_SUPPRESS_RE = re.compile(
    r"szlint:\s*ignore\[(?P<ids>[A-Za-z0-9_*,\s]+)\]\s*(?:--\s*(?P<reason>\S.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  #: path relative to the scan root (stable across machines)
    line: int
    col: int
    symbol: str  #: dotted enclosing scope, e.g. ``StoreCatalog.borrow``
    message: str

    @property
    def key(self) -> tuple[str, str, str]:
        """The baseline identity: line numbers shift, symbols rarely do."""
        return (self.rule, self.path, self.symbol)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }


@dataclass
class _Suppression:
    line: int
    ids: frozenset[str]
    reason: str | None
    used: bool = False

    def covers(self, rule: str) -> bool:
        return "*" in self.ids or rule in self.ids


class ModuleContext:
    """One parsed source file plus the lookups every rule needs."""

    def __init__(self, path: str, relpath: str, source: str):
        self.path = path
        self.relpath = relpath.replace(os.sep, "/")
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        #: node -> enclosing dotted scope name ("<module>" at top level)
        self._scope: dict[ast.AST, str] = {}
        #: dotted scope name -> FunctionDef/AsyncFunctionDef node
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        #: dotted scope name -> ClassDef node
        self.classes: dict[str, ast.ClassDef] = {}
        #: node -> parent node
        self.parents: dict[ast.AST, ast.AST] = {}
        self._index()
        self.suppressions = self._scan_suppressions()

    def _index(self) -> None:
        def walk(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
                child_scope = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    child_scope = f"{scope}.{child.name}" if scope != "<module>" else child.name
                    self.functions[child_scope] = child
                elif isinstance(child, ast.ClassDef):
                    child_scope = f"{scope}.{child.name}" if scope != "<module>" else child.name
                    self.classes[child_scope] = child
                self._scope[child] = child_scope
                walk(child, child_scope)

        self._scope[self.tree] = "<module>"
        walk(self.tree, "<module>")

    def scope_of(self, node: ast.AST) -> str:
        """The dotted scope enclosing ``node`` (including itself for defs)."""
        return self._scope.get(node, "<module>")

    def symbol_for(self, node: ast.AST) -> str:
        """Baseline symbol for a finding at ``node``: its enclosing scope."""
        return self.scope_of(node)

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST):
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            symbol=self.symbol_for(node),
            message=message,
        )

    # -- suppressions ---------------------------------------------------------

    def _scan_suppressions(self) -> dict[int, _Suppression]:
        """Real comment tokens only — the syntax inside a docstring is inert."""
        out: dict[int, _Suppression] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                match = _SUPPRESS_RE.search(tok.string)
                if not match:
                    continue
                ids = frozenset(
                    part.strip()
                    for part in match.group("ids").split(",")
                    if part.strip()
                )
                line = tok.start[0]
                # a comment standing on its own line covers the next line
                prefix = self.lines[line - 1][: tok.start[1]] if line <= len(self.lines) else ""
                target = line + 1 if not prefix.strip() else line
                out[target] = _Suppression(
                    line=line, ids=ids, reason=match.group("reason")
                )
        except tokenize.TokenError:
            pass
        return out

    def suppression_findings(self) -> list[Finding]:
        """Malformed suppressions: an exemption without a reason is itself
        a finding — unexplained exemptions are the fragility this tool
        exists to remove."""
        out = []
        for supp in self.suppressions.values():
            if supp.reason is None:
                out.append(
                    Finding(
                        rule=META_RULE,
                        path=self.relpath,
                        line=supp.line,
                        col=1,
                        symbol="<suppression>",
                        message=(
                            "suppression comment is missing its reason: write "
                            "'# szlint: ignore[RULE] -- why this is safe'"
                        ),
                    )
                )
        return out

    def is_suppressed(self, finding: Finding) -> bool:
        supp = self.suppressions.get(finding.line)
        if supp is not None and supp.reason is not None and supp.covers(finding.rule):
            supp.used = True
            return True
        return False


# -- helpers shared by the rules ----------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``os.path.getsize`` for nested attributes, ``open`` for names; None
    for anything not a plain dotted chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# -- baseline -----------------------------------------------------------------


class Baseline:
    """Committed grandfather list: ``(rule, path, symbol)`` -> justification."""

    VERSION = 1

    def __init__(self, entries: dict[tuple[str, str, str], str] | None = None):
        self.entries = dict(entries or {})
        self._used: set[tuple[str, str, str]] = set()

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if obj.get("version", 0) > cls.VERSION:
            raise ValueError(
                f"baseline {path!r} has version {obj['version']}, newer than "
                f"supported {cls.VERSION}"
            )
        entries = {}
        for entry in obj.get("entries", []):
            key = (entry["rule"], entry["path"], entry["symbol"])
            justification = entry.get("justification", "").strip()
            if not justification:
                raise ValueError(
                    f"baseline {path!r}: entry {key} has no justification — "
                    "every grandfathered finding must say why"
                )
            entries[key] = justification
        return cls(entries)

    def save(self, path: str) -> None:
        payload = {
            "version": self.VERSION,
            "entries": [
                {
                    "rule": rule,
                    "path": rel,
                    "symbol": symbol,
                    "justification": justification,
                }
                for (rule, rel, symbol), justification in sorted(self.entries.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def covers(self, finding: Finding) -> bool:
        if finding.key in self.entries:
            self._used.add(finding.key)
            return True
        return False

    def stale_entries(self) -> list[tuple[str, str, str]]:
        return sorted(set(self.entries) - self._used)

    @classmethod
    def from_findings(cls, findings: list[Finding]) -> "Baseline":
        return cls(
            {
                f.key: "TODO: justify or fix (auto-generated by --write-baseline)"
                for f in findings
            }
        )


# -- engine -------------------------------------------------------------------


@dataclass
class Report:
    """Everything one engine run produced."""

    #: findings that gate (not suppressed, not baselined), sorted
    findings: list[Finding] = field(default_factory=list)
    #: findings matched by a baseline entry
    baselined: list[Finding] = field(default_factory=list)
    #: count of findings silenced by inline suppressions
    suppressed: int = 0
    #: baseline entries that matched nothing this run
    stale_baseline: list[tuple[str, str, str]] = field(default_factory=list)
    #: files that failed to parse: (path, error)
    errors: list[tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "findings": [f.to_json() for f in self.findings],
            "baselined": [f.to_json() for f in self.baselined],
            "suppressed": self.suppressed,
            "stale_baseline": [
                {"rule": r, "path": p, "symbol": s} for r, p, s in self.stale_baseline
            ],
            "errors": [{"path": p, "error": e} for p, e in self.errors],
        }


def iter_python_files(root: str):
    """Yield ``(abspath, relpath)`` for every ``.py`` under ``root`` (or the
    file itself), skipping caches, sorted for deterministic output."""
    if os.path.isfile(root):
        yield root, os.path.basename(root)
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d not in ("__pycache__", ".git")
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                yield path, os.path.relpath(path, root)


def run(
    paths: list[str],
    rules=None,
    baseline: Baseline | None = None,
) -> Report:
    """Check every file under ``paths`` with ``rules`` (default: all)."""
    if rules is None:
        from repro.analysis.rules import ALL_RULES

        rules = ALL_RULES
    report = Report()
    raw: list[tuple[ModuleContext, Finding]] = []
    for root in paths:
        for path, relpath in iter_python_files(root):
            try:
                with open(path, encoding="utf-8") as fh:
                    source = fh.read()
                ctx = ModuleContext(path, relpath, source)
            except (OSError, SyntaxError, ValueError) as exc:
                report.errors.append((relpath, str(exc)))
                continue
            report.files_checked += 1
            for finding in ctx.suppression_findings():
                raw.append((ctx, finding))
            for rule in rules:
                if rule.scope and not any(
                    part in ctx.relpath for part in rule.scope
                ):
                    continue
                for finding in rule.check(ctx):
                    raw.append((ctx, finding))
    for ctx, finding in raw:
        if finding.rule != META_RULE and ctx.is_suppressed(finding):
            report.suppressed += 1
        elif baseline is not None and baseline.covers(finding):
            report.baselined.append(finding)
        else:
            report.findings.append(finding)
    if baseline is not None:
        report.stale_baseline = baseline.stale_entries()
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report.baselined.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


# -- output -------------------------------------------------------------------


def format_report(report: Report, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report.to_json(), indent=2, sort_keys=True)
    if fmt == "github":
        out = []
        for path, error in report.errors:
            out.append(f"::error file={path},title=parse-error::{error}")
        for f in report.findings:
            message = f"[{f.symbol}] {f.message}"
            out.append(
                f"::error file={f.path},line={f.line},col={f.col},"
                f"title={f.rule}::{message}"
            )
        summary = (
            f"{len(report.findings)} finding(s), {len(report.baselined)} "
            f"baselined, {report.suppressed} suppressed, "
            f"{report.files_checked} files"
        )
        out.append(f"::notice title=repro.analysis::{summary}")
        return "\n".join(out)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r} (text|json|github)")
    out = []
    for path, error in report.errors:
        out.append(f"{path}: PARSE ERROR: {error}")
    for f in report.findings:
        out.append(f"{f.path}:{f.line}:{f.col}: {f.rule} [{f.symbol}] {f.message}")
    if report.baselined:
        out.append("")
        out.append(f"baselined ({len(report.baselined)} grandfathered):")
        for f in report.baselined:
            out.append(f"  {f.path}:{f.line}: {f.rule} [{f.symbol}]")
    if report.stale_baseline:
        out.append("")
        out.append("stale baseline entries (matched nothing — prune them):")
        for rule, path, symbol in report.stale_baseline:
            out.append(f"  {rule} {path} [{symbol}]")
    out.append("")
    verdict = "OK" if report.ok else "FAIL"
    out.append(
        f"{verdict}: {len(report.findings)} finding(s), "
        f"{len(report.baselined)} baselined, {report.suppressed} suppressed, "
        f"{report.files_checked} files checked"
    )
    return "\n".join(out)
