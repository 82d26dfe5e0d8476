"""Core of the repo's static checks: rule plugin API, AST walker, output.

The engine parses each Python file once, dispatches every AST node to
the per-node rules that declared a handler for its type, then hands the
same parsed trees to the whole-project rules.  A rule is a subclass of
:class:`Rule` registered with :func:`register`; it declares

* ``id`` — a stable code (``REPnnn`` or ``FLOWnnn``) used in reports and
  suppressions;
* ``name`` — a kebab-case slug for humans;
* ``severity`` — ``"error"`` or ``"warning"`` (errors drive the exit code);
* ``scope`` — optional tuple of dotted module prefixes the rule applies to
  (``None`` means every file);
* handler methods named ``check_<NodeType>`` (e.g. ``check_Call``), each
  taking ``(node, ctx)`` where ``ctx`` is the per-file
  :class:`ModuleContext`;
* or ``project = True`` and no handlers: the rule is judged over every
  parsed file at once by :class:`repro.devtools.flow.checks.ProjectAnalysis`
  (the FLOW rules).

Per-node findings on a line carrying ``# repro: noqa=REP001`` (or a
comma-separated list, or a bare ``# repro: noqa`` suppressing every
per-node rule) are dropped at report time.  Whole-project findings are
suppressed only by their own ``# repro: atomic=<reason>`` contract
(:mod:`repro.devtools.flow.shared`).  Output is either human-oriented
(``path:line:col: CODE message``) or machine-readable JSON — see
:func:`format_human` and :func:`format_json`.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path

#: matches ``# repro: noqa`` and ``# repro: noqa=REP001,REP002``
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\s*=\s*([A-Za-z0-9_,\s]+))?")

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One lint violation at a source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return asdict(self)


class Rule:
    """Base class for lint rules; subclass, set metadata, add handlers."""

    #: stable rule code, e.g. ``"REP001"`` or ``"FLOW001"``
    id: str = "REP000"
    #: kebab-case slug, e.g. ``"unseeded-random"``
    name: str = "abstract-rule"
    #: one-line description shown by ``repro lint --list-rules``
    description: str = ""
    severity: str = "error"
    #: dotted module prefixes this rule applies to; ``None`` = everywhere
    scope: tuple = None
    #: judged over the whole parsed tree at once instead of node by node
    project: bool = False

    def applies_to(self, module: str) -> bool:
        """True when the rule is active for dotted module name ``module``."""
        if self.scope is None:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )


#: rule id -> rule class, in registration order
RULES: dict = {}


def register(cls):
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls
    return cls


def default_rules(select=None):
    """Instantiate registered rules; ``select`` limits to the given ids."""
    if select is not None:
        unknown = set(select) - set(RULES)
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        return [RULES[rule_id]() for rule_id in RULES if rule_id in select]
    return [cls() for cls in RULES.values()]


def module_name_for(path: Path) -> str:
    """Infer the dotted module name of ``path`` from its ``repro`` ancestry.

    ``.../src/repro/cache/vway.py`` -> ``repro.cache.vway``; a file outside
    any ``repro`` tree falls back to its bare stem.  ``__init__.py``
    resolves to the package name itself.
    """
    parts = list(path.parts)
    anchors = [i for i, part in enumerate(parts) if part == "repro"]
    if anchors:
        parts = parts[anchors[-1]:]
    else:
        parts = [path.name]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


class ModuleContext:
    """Per-file state shared by every rule handler during one walk."""

    def __init__(self, path: Path, source: str, tree: ast.Module):
        self.path = path
        self.module = module_name_for(path)
        self.is_package = path.name == "__init__.py"
        self.tree = tree
        self.lines = source.splitlines()
        self.findings: list = []
        self.suppressed: int = 0
        #: names of every ``async def`` in the module (incl. methods)
        self.async_defs = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.AsyncFunctionDef)
        }
        #: stack of enclosing function nodes maintained by the engine
        self.function_stack: list = []

    @property
    def in_async_function(self) -> bool:
        """True when the current node sits directly inside an ``async def``
        (a nested synchronous ``def`` resets the context)."""
        if not self.function_stack:
            return False
        return isinstance(self.function_stack[-1], ast.AsyncFunctionDef)

    def _suppressed_codes(self, line: int):
        """Codes suppressed on physical ``line``; ``None`` = not suppressed,
        empty tuple = all codes suppressed."""
        if not 1 <= line <= len(self.lines):
            return None
        match = _NOQA_RE.search(self.lines[line - 1])
        if match is None:
            return None
        codes = match.group(1)
        if codes is None:
            return ()
        return tuple(c.strip().upper() for c in codes.split(",") if c.strip())

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        """Record a finding unless a ``# repro: noqa`` comment suppresses it."""
        line = getattr(node, "lineno", 1)
        codes = self._suppressed_codes(line)
        if codes is not None and (codes == () or rule.id in codes):
            self.suppressed += 1
            return
        self.findings.append(
            Finding(
                rule=rule.id,
                severity=rule.severity,
                path=str(self.path),
                line=line,
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )


class LintEngine:
    """Run a set of rules over files or directory trees."""

    def __init__(self, rules=None):
        self.rules = list(rules) if rules is not None else default_rules()
        # node-type name -> [(rule, bound handler)]
        self._handlers: dict = {}
        for rule in self.rules:
            for attr in dir(rule):
                if attr.startswith("check_"):
                    node_type = attr[len("check_"):]
                    self._handlers.setdefault(node_type, []).append(
                        (rule, getattr(rule, attr))
                    )
        self.files_checked = 0
        self.suppressed = 0

    # -- file discovery --------------------------------------------------------

    @staticmethod
    def iter_python_files(paths):
        """Yield ``.py`` files under ``paths``, skipping caches/hidden dirs."""
        for raw in paths:
            path = Path(raw)
            if path.is_file():
                if path.suffix == ".py":
                    yield path
                continue
            for sub in sorted(path.rglob("*.py")):
                if any(
                    part == "__pycache__" or part.startswith(".")
                    for part in sub.parts
                ):
                    continue
                yield sub

    # -- linting ---------------------------------------------------------------

    def lint_source(self, source: str, path) -> list:
        """Lint a source string as if it lived at ``path``."""
        return self.lint_sources({str(path): source})

    def lint_paths(self, paths) -> list:
        """Lint every Python file under ``paths``; findings sorted."""
        return self.lint_sources({
            str(path): path.read_text(encoding="utf-8")
            for path in self.iter_python_files(paths)
        })

    def lint_sources(self, sources) -> list:
        """Lint a ``{path: source}`` mapping as one project; findings sorted.

        Each file is parsed once: the per-node rules walk its tree, then
        the whole-project rules see every tree that parsed.
        """
        findings, parsed = [], []
        for raw in sorted(sources):
            path, source = Path(raw), sources[raw]
            path_str = str(path)
            try:
                tree = ast.parse(source, filename=path_str)
            except SyntaxError as exc:
                findings.append(
                    Finding(
                        rule="REP000",
                        severity="error",
                        path=path_str,
                        line=exc.lineno or 1,
                        col=exc.offset or 0,
                        message=f"syntax error: {exc.msg}",
                    )
                )
                continue
            ctx = ModuleContext(path, source, tree)
            active = {
                node_type: [
                    (rule, handler)
                    for rule, handler in handlers
                    if rule.applies_to(ctx.module)
                ]
                for node_type, handlers in self._handlers.items()
            }
            self._walk(tree, ctx, active)
            self.suppressed += ctx.suppressed
            findings.extend(ctx.findings)
            parsed.append((path_str, ctx.module, tree, source))
        self.files_checked += len(sources)
        findings.extend(self._check_project(parsed))
        return sorted(findings, key=Finding.sort_key)

    def _check_project(self, files) -> list:
        """Run the whole-project rules over ``(path, module, tree, source)``."""
        rules = [rule for rule in self.rules if rule.project]
        if not rules:
            return []
        # imported here: the flow package itself imports this module
        from ..flow.checks import ProjectAnalysis

        analysis = ProjectAnalysis(files)
        findings = analysis.run(rules)
        self.suppressed += analysis.suppressed
        return findings

    def _walk(self, node: ast.AST, ctx: ModuleContext, active: dict) -> None:
        for rule, handler in active.get(type(node).__name__, ()):
            handler(node, ctx)
        is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_function:
            ctx.function_stack.append(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child, ctx, active)
        if is_function:
            ctx.function_stack.pop()


# -- output -----------------------------------------------------------------


def format_human(findings, files_checked: int) -> str:
    """Grep-friendly report, one finding per line."""
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule} [{f.severity}] {f.message}"
        for f in findings
    ]
    noun = "file" if files_checked == 1 else "files"
    lines.append(
        f"{len(findings)} finding(s) in {files_checked} {noun} checked"
    )
    return "\n".join(lines)


def format_json(findings, files_checked: int, rules) -> str:
    """Machine-readable report (schema asserted in tests/test_lint.py)."""
    return json.dumps(
        {
            "version": 1,
            "files_checked": files_checked,
            "rules": [
                {
                    "id": rule.id,
                    "name": rule.name,
                    "severity": rule.severity,
                    "description": rule.description,
                }
                for rule in rules
            ],
            "findings": [f.to_dict() for f in findings],
        },
        indent=2,
    )


def run_lint(paths, select=None) -> tuple:
    """Convenience: lint ``paths``; returns ``(findings, engine)``."""
    engine = LintEngine(default_rules(select))
    return engine.lint_paths(paths), engine
