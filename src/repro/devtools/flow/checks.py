"""The flow analyses: FLOW001 / FLOW002 / FLOW003.

Built on the statement CFGs (:mod:`.cfg`), the project call graph
(:mod:`.callgraph`) and the shared-state model (:mod:`.shared`):

* **FLOW001 async-atomicity** — a read of shared state whose value (or
  branch decision) feeds a later write of the *same* location, with a
  suspension point on some path between read and write.  The window lets
  another coroutine change the location, so the write commits a stale
  view.  Holding the same ``asyncio.Lock`` (structurally: the same
  ``async with`` block) across the gap excuses the pair — and records a
  *reliance* of that location on that lock; ``# repro: atomic=<reason>``
  suppresses with a written invariant.
* **FLOW002 lock discipline** — (a) a lock acquired with ``.acquire()``
  but not released on all exit paths (release must sit in a ``finally``;
  prefer ``async with``); (b) awaiting, while holding a lock, a callee
  that acquires the same lock — ``asyncio.Lock`` is not reentrant, so
  that is a guaranteed deadlock; (c) a write to a location that FLOW001
  excused *because of a lock*, performed without holding that lock —
  the unguarded writer silently breaks the invariant the lock was
  supposed to provide.
* **FLOW003 wire-protocol conformance** — each server layer's verb
  table (its ``@wire_verb`` handlers), the codec's ``VERB_IDS`` /
  ``REQUEST_FIELDS`` tables and the clients' ``.call("VERB")`` senders,
  diffed against the declarative spec in :mod:`.protocol_spec`: an
  undeclared handler, a declared verb never handled, a handled verb
  never sent, a sent verb never documented, or codec-table drift all
  fail.

Everything is deliberately *syntactic and conservative*: no alias
analysis, one level of call-graph inlining, locks matched structurally
(same ``with`` block) for FLOW001 and by normalized name for FLOW002.
The goal is the PR-6 class of bug — shared owner/replica bookkeeping
mutated around an ``await`` fan-out — not a general race detector.

The three rules are declared in :mod:`repro.devtools.lint.rules` beside
the REP rules; ``repro lint`` hands its parsed trees to
:class:`ProjectAnalysis` after the per-node pass.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from ..lint.engine import Finding
from .callgraph import CallGraph
from .cfg import build_cfg, dotted_name, iter_functions, iter_scope
from .shared import MUTATORS, FileAnnotations, SharedModel

#: a with-context / attribute counts as a lock when its last name
#: segment mentions one (self._lock, lock, self._key_lock(key), ...)
_LOCKISH_RE = re.compile(r"lock", re.IGNORECASE)


def is_lockish(name: str) -> bool:
    """True when a normalized context/receiver name looks like a lock."""
    last = name.rstrip("()").rsplit(".", 1)[-1]
    return bool(_LOCKISH_RE.search(last))


# -- per-node effects --------------------------------------------------------


@dataclass
class Effects:
    """What one CFG node does to shared state."""

    reads: tuple = ()  # Locs read (incl. one inlined call level)
    writes: tuple = ()  # Locs written (incl. one inlined call level)
    direct_reads: tuple = ()  # Locs read by this statement itself
    direct_writes: tuple = ()  # Locs written by this statement itself
    used_vars: tuple = ()  # local names read
    assigned_vars: tuple = ()  # local names bound
    awaited_callees: tuple = ()  # resolved FuncInfo keys awaited here
    acquires: tuple = ()  # (lock name, line) of manual .acquire() calls
    releases: tuple = ()  # lock names of .release() calls


@dataclass
class Summary:
    """Direct (non-inlined) effects of a whole function."""

    reads: frozenset = frozenset()
    writes: frozenset = frozenset()
    acquires: frozenset = frozenset()  # lock names taken anywhere inside


class _FunctionContext:
    """Resolution context while scanning one function's statements."""

    def __init__(self, module, cls_name, func, shared, callgraph,
                 summaries=None):
        self.module = module
        self.cls_name = cls_name or ""
        self.func = func
        self.shared = shared
        self.callgraph = callgraph
        self.summaries = summaries if summaries is not None else {}
        self.locals = _locals_of(func)
        self.globals_declared = {
            name
            for sub in ast.walk(func)
            if isinstance(sub, ast.Global)
            for name in sub.names
        }


def _locals_of(func) -> set:
    local = {arg.arg for arg in func.args.args}
    local.update(arg.arg for arg in func.args.kwonlyargs)
    local.update(arg.arg for arg in (func.args.vararg, func.args.kwarg) if arg)
    for sub in ast.walk(func):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            local.add(sub.id)
    for sub in ast.walk(func):
        if isinstance(sub, ast.Global):
            local.difference_update(sub.names)
    return local


def _resolve_base_loc(ctx, expr):
    """The shared :class:`~.shared.Loc` behind an expression, or None.

    Recognizes ``self.attr`` and bare shared-global names; peels
    subscripts (``self.versions[key]`` mutates ``self.versions``).
    """
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return ctx.shared.attr_loc(ctx.module, ctx.cls_name, expr.attr)
    if isinstance(expr, ast.Name) and (
        expr.id in ctx.globals_declared or expr.id not in ctx.locals
    ):
        return ctx.shared.global_loc(ctx.module, expr.id)
    return None


def scan_reads(ctx, expr):
    """Shared locations read anywhere in ``expr`` (one call level deep)."""
    reads = []
    for sub in iter_scope(expr):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            loc = ctx.shared.attr_loc(ctx.module, ctx.cls_name, sub.attr)
            if loc is not None:
                reads.append(loc)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            loc = ctx.shared.global_loc(ctx.module, sub.id) \
                if sub.id not in ctx.locals or sub.id in ctx.globals_declared \
                else None
            if loc is not None:
                reads.append(loc)
        elif isinstance(sub, ast.Call):
            callee = ctx.callgraph.resolve_call(sub, ctx.module, ctx.cls_name)
            if callee is not None and not callee.is_async:
                summary = _summary_of(ctx, callee)
                reads.extend(summary.reads)
    return reads


def _summary_of(ctx, func_info) -> Summary:
    summary = ctx.summaries.get(func_info.key)
    return summary if summary is not None else Summary()


def compute_summary(module, cls_name, func, shared, callgraph) -> Summary:
    """Direct shared reads/writes and lock acquisitions of a function."""
    from .cfg import function_assigns, normalized_context_name

    ctx = _FunctionContext(module, cls_name, func, shared, callgraph)
    assigns = function_assigns(func)
    reads, writes, acquires = set(), set(), set()
    for sub in iter_scope(func):
        if isinstance(sub, (ast.With, ast.AsyncWith)):
            for item in sub.items:
                name = normalized_context_name(item.context_expr, assigns)
                if is_lockish(name):
                    acquires.add(name)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr == "acquire":
                name = dotted_name(sub.func.value)
                if name and is_lockish(name):
                    acquires.add(name)
            if sub.func.attr in MUTATORS:
                loc = _resolve_base_loc(ctx, sub.func.value)
                if loc is not None:
                    reads.add(loc)
                    writes.add(loc)
        if isinstance(sub, ast.Attribute):
            if (
                isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                loc = ctx.shared.attr_loc(ctx.module, ctx.cls_name, sub.attr)
                if loc is None:
                    continue
                if isinstance(sub.ctx, ast.Load):
                    reads.add(loc)
                else:
                    writes.add(loc)
        elif isinstance(sub, ast.Name):
            loc = ctx.shared.global_loc(ctx.module, sub.id) \
                if sub.id in ctx.globals_declared or sub.id not in ctx.locals \
                else None
            if loc is None:
                continue
            if isinstance(sub.ctx, ast.Load):
                reads.add(loc)
            else:
                writes.add(loc)
        elif isinstance(sub, ast.Subscript) and not isinstance(
            sub.ctx, ast.Load
        ):
            loc = _resolve_base_loc(ctx, sub)
            if loc is not None:
                reads.add(loc)
                writes.add(loc)
        elif isinstance(sub, ast.AugAssign):
            loc = _resolve_base_loc(ctx, sub.target)
            if loc is not None:
                reads.add(loc)
    return Summary(
        reads=frozenset(reads), writes=frozenset(writes),
        acquires=frozenset(acquires),
    )


def node_effects(ctx, node) -> Effects:
    """Shared-state effects of one CFG node (one inlined call level)."""
    reads, writes, direct_reads, direct_writes = [], [], [], []
    used_vars, assigned_vars, awaited, acquires, releases = [], [], [], [], []
    awaited_calls = set()
    for scan in node.scan_nodes:
        for sub in iter_scope(scan):
            if isinstance(sub, ast.Await) and isinstance(sub.value, ast.Call):
                awaited_calls.add(id(sub.value))
    for scan in node.scan_nodes:
        for sub in iter_scope(scan):
            if isinstance(sub, ast.Attribute) and isinstance(
                sub.value, ast.Name
            ) and sub.value.id == "self":
                loc = ctx.shared.attr_loc(ctx.module, ctx.cls_name, sub.attr)
                if loc is not None:
                    if isinstance(sub.ctx, ast.Load):
                        reads.append(loc)
                        direct_reads.append(loc)
                    else:
                        writes.append(loc)
                        direct_writes.append(loc)
            elif isinstance(sub, ast.Name):
                if isinstance(sub.ctx, ast.Load):
                    used_vars.append(sub.id)
                    if (
                        sub.id in ctx.globals_declared
                        or sub.id not in ctx.locals
                    ):
                        loc = ctx.shared.global_loc(ctx.module, sub.id)
                        if loc is not None:
                            reads.append(loc)
                            direct_reads.append(loc)
                else:
                    if sub.id in ctx.globals_declared:
                        loc = ctx.shared.global_loc(ctx.module, sub.id)
                        if loc is not None:
                            writes.append(loc)
                            direct_writes.append(loc)
                    else:
                        assigned_vars.append(sub.id)
            elif isinstance(sub, ast.Subscript) and not isinstance(
                sub.ctx, ast.Load
            ):
                loc = _resolve_base_loc(ctx, sub)
                if loc is not None:
                    reads.append(loc)
                    direct_reads.append(loc)
                    writes.append(loc)
                    direct_writes.append(loc)
            elif isinstance(sub, ast.Call):
                if isinstance(sub.func, ast.Attribute):
                    if sub.func.attr in MUTATORS:
                        loc = _resolve_base_loc(ctx, sub.func.value)
                        if loc is not None:
                            reads.append(loc)
                            direct_reads.append(loc)
                            writes.append(loc)
                            direct_writes.append(loc)
                    elif sub.func.attr == "acquire":
                        name = dotted_name(sub.func.value)
                        if name and is_lockish(name):
                            acquires.append((name, sub.lineno))
                    elif sub.func.attr == "release":
                        name = dotted_name(sub.func.value)
                        if name and is_lockish(name):
                            releases.append(name)
                callee = ctx.callgraph.resolve_call(
                    sub, ctx.module, ctx.cls_name
                )
                if callee is not None:
                    if id(sub) in awaited_calls:
                        awaited.append(callee.key)
                    if not callee.is_async or id(sub) in awaited_calls:
                        summary = _summary_of(ctx, callee)
                        reads.extend(summary.reads)
                        writes.extend(summary.writes)
    # an augmented assignment reads its own target before writing it
    if isinstance(node.stmt, ast.AugAssign):
        loc = _resolve_base_loc(ctx, node.stmt.target)
        if loc is not None:
            reads.append(loc)
            direct_reads.append(loc)
    return Effects(
        reads=tuple(dict.fromkeys(reads)),
        writes=tuple(dict.fromkeys(writes)),
        direct_reads=tuple(dict.fromkeys(direct_reads)),
        direct_writes=tuple(dict.fromkeys(direct_writes)),
        used_vars=tuple(dict.fromkeys(used_vars)),
        assigned_vars=tuple(dict.fromkeys(assigned_vars)),
        awaited_callees=tuple(dict.fromkeys(awaited)),
        acquires=tuple(acquires),
        releases=tuple(dict.fromkeys(releases)),
    )


# -- FLOW001 dataflow --------------------------------------------------------


def _node_locks(node) -> tuple:
    """Lock-ish with-contexts enclosing the node: ((name, with_id), ...)."""
    return tuple(
        (name, with_id)
        for name, with_id, _ in node.withs
        if is_lockish(name)
    )


class FunctionFindings:
    """FLOW001 raw results of one function, pre-annotation-filtering."""

    def __init__(self):
        self.pairs = set()  # (loc, read_line, write_line)
        self.reliances = {}  # loc -> set of lock names


def analyze_flow001(ctx, cfg) -> FunctionFindings:
    """Run the active-reads/taint dataflow to a fixpoint over ``cfg``."""
    out = FunctionFindings()
    for node in cfg.nodes:
        node.effects = node_effects(ctx, node)
        node.lock_pairs = _node_locks(node)
        node.lock_ids = frozenset(i for _, i in node.lock_pairs)
        node.cond_reads = tuple(
            (loc, line)
            for expr, line in node.conditions
            for loc in scan_reads(ctx, expr)
        )
    # state: (active, taint) per node entry
    #   active: {loc: frozenset((read_line, crossed, lock_ids))}
    #   taint:  {var: frozenset((loc, read_line))}
    states = {node.index: ({}, {}) for node in cfg.nodes}
    preds = {node.index: [] for node in cfg.nodes}
    for src, dsts in cfg.succs.items():
        for dst in dsts:
            preds[dst].append(src)
    worklist = list(cfg.entry) + [n.index for n in cfg.nodes]
    out_states = {}
    iterations = 0
    limit = 50 * (len(cfg.nodes) + 1)
    while worklist and iterations < limit:
        iterations += 1
        index = worklist.pop(0)
        node = cfg.nodes[index]
        active, taint = _merge_states(
            [out_states[p] for p in preds[index] if p in out_states]
        )
        new_out = _transfer(node, active, taint, out)
        if out_states.get(index) != new_out:
            out_states[index] = new_out
            worklist.extend(cfg.succs[index])
    return out


def _merge_states(states):
    active, taint = {}, {}
    for st_active, st_taint in states:
        for loc, facts in st_active.items():
            active[loc] = active.get(loc, frozenset()) | facts
        for var, facts in st_taint.items():
            taint[var] = taint.get(var, frozenset()) | facts
    return active, taint


def _transfer(node, active, taint, out: FunctionFindings):
    """One node's transfer function; facts are ``(read_line, crossed,
    lock_ids, is_direct)`` tuples.

    Three pairing refinements keep the check usable (each kills a
    measured false-positive class without losing the target bug shape):

    * **fresh rule** — a same-statement read (``self.c += 1``, a mutator
      call) pairs only with the fact generated *by this visit*, never
      with a stale same-line fact carried around a loop back-edge; a
      counter bumped once per iteration is one atomic RMW per iteration.
    * **all-crossed rule** — a pair is reported only when *every* fact
      for that read point is crossed: a loop that re-executes the read
      each iteration (check-then-pop queues) refreshes its knowledge, so
      only reads that cross a suspension on every path to the write are
      stale.
    * **direct rule** — a pair where both the read and the write happen
      inside *callees* (summary effects on both sides) belongs to the
      callee's own analysis; at least one side must be syntactic in this
      function.
    """
    effects = node.effects
    active = dict(active)
    # 1. new reads become active facts (not yet across a suspension)
    fresh = {}
    for loc in effects.reads:
        fact = (node.line, False, node.lock_ids,
                loc in effects.direct_reads)
        active[loc] = active.get(loc, frozenset()) | {fact}
        fresh[loc] = fact
    # 2. assigned locals inherit the taint of everything the stmt read
    taint_in = taint
    if effects.assigned_vars:
        gen = frozenset()
        for var in effects.used_vars:
            gen |= taint_in.get(var, frozenset())
        gen |= frozenset((loc, node.line) for loc in effects.reads)
        taint = dict(taint_in)
        for var in effects.assigned_vars:
            taint[var] = gen
    # 3. a suspension lets every other coroutine run: facts go stale
    if node.suspends:
        active = {
            loc: frozenset(
                (line, True, locks, direct)
                for line, _, locks, direct in facts
            )
            for loc, facts in active.items()
        }
        fresh = {
            loc: (fact[0], True, fact[2], fact[3])
            for loc, fact in fresh.items()
        }
    # 4. dependent writes against stale facts are findings (or reliances)
    for loc in effects.writes:
        write_direct = loc in effects.direct_writes
        dep_lines = set()
        for var in effects.used_vars:
            dep_lines.update(
                rl for (l, rl) in taint_in.get(var, frozenset()) if l == loc
            )
        if loc in effects.reads:
            dep_lines.add(node.line)
        for cond_loc, cond_line in node.cond_reads:
            if cond_loc == loc:
                dep_lines.add(cond_line)
        if not dep_lines:
            continue
        for read_line in dep_lines:
            if read_line == node.line:
                # fresh rule: a same-statement read is the one made by
                # this very visit, not a loop-carried fact
                facts = [fresh[loc]] if loc in fresh else []
            else:
                facts = [
                    f for f in active.get(loc, frozenset())
                    if f[0] == read_line
                ]
            # direct rule: at least one side syntactic in this function
            facts = [f for f in facts if f[3] or write_direct]
            if not facts or not all(f[1] for f in facts):
                continue  # all-crossed rule
            for _, _, lock_ids, _ in facts:
                common = lock_ids & node.lock_ids
                if common:
                    names = {n for n, i in node.lock_pairs if i in common}
                    out.reliances.setdefault(loc, set()).update(names)
                else:
                    out.pairs.add((loc, read_line, node.line))
    return (
        {loc: frozenset(facts) for loc, facts in active.items()},
        {var: frozenset(facts) for var, facts in taint.items()},
    )


# -- FLOW003 verb extraction -------------------------------------------------

#: the decorator registering a server handler (``@wire_verb("VERB")``);
#: the decorated functions of a server file are that layer's verb table
HANDLER_DECORATOR = "wire_verb"

#: the codec tables whose keys must cover exactly the documented verbs
CODEC_TABLES = ("VERB_IDS", "REQUEST_FIELDS")

_VERB_RE = re.compile(r"^[A-Z][A-Z0-9]*$")


def _module_string_dict_keys(tree) -> dict:
    """Module-level ``NAME = {"A": ..., ...}`` string keys, by name.

    Returns ``{const_name: {key: line}}`` for every module-level dict
    literal whose keys are all string constants — the shape of the
    ``VERB_IDS`` / ``REQUEST_FIELDS`` codec tables.
    """
    consts = {}
    for node in tree.body:
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            continue
        value = node.value
        if isinstance(value, ast.Dict) and value.keys and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str)
            for k in value.keys
        ):
            consts[node.targets[0].id] = {
                k.value: k.lineno for k in value.keys
            }
    return consts


def _verb_constant(node):
    """The verb named by a string-constant AST node, or None."""
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _VERB_RE.match(node.value)
    ):
        return node.value
    return None


def extract_handled_verbs(tree) -> dict:
    """A server file's verb table: ``{verb: line}``.

    A verb is *handled* when a function is decorated with
    ``@wire_verb("VERB")`` (plain or attribute-qualified decorator name).
    """
    handled = {}
    for _, func in iter_functions(tree):
        for deco in func.decorator_list:
            if not (isinstance(deco, ast.Call) and deco.args):
                continue
            name = getattr(deco.func, "id", None) or getattr(
                deco.func, "attr", None
            )
            verb = _verb_constant(deco.args[0])
            if name == HANDLER_DECORATOR and verb is not None:
                handled.setdefault(verb, deco.lineno)
    return handled


def extract_sent_verbs(tree) -> dict:
    """Verbs a client file sends: ``{verb: line}``.

    A verb is *sent* when the first argument of a ``*.call(...)``
    transport call is a string constant naming it.
    """
    sent = {}
    for _, func in iter_functions(tree):
        for sub in iter_scope(func):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "call"
                and sub.args
            ):
                verb = _verb_constant(sub.args[0])
                if verb is not None:
                    sent.setdefault(verb, sub.lineno)
    return sent


def check_protocol(files, rule) -> list:
    """FLOW003: diff verb tables, codec tables and senders against the spec.

    ``files`` is a list of ``(path_str, tree)``.  Three surfaces are
    diffed against ``protocol_spec.SPEC``:

    * each layer's verb table (the ``@wire_verb`` handlers of its server
      file) — an undeclared handler, or a declared verb never handled;
    * the codec tables ``VERB_IDS`` / ``REQUEST_FIELDS`` — table drift;
    * the ``.call("VERB")`` senders — a handled verb no client sends, or
      a sent verb the spec does not document.

    A surface is checked only when its file is part of the analyzed set;
    the never-sent check additionally needs every spec client file
    present (a partial tree cannot prove the absence of a sender).
    """
    from . import protocol_spec as spec

    def find(suffix):
        for path, tree in files:
            if path.replace("\\", "/").endswith(suffix):
                return path, tree
        return None, None

    findings = []

    def report(path, line, message):
        findings.append(
            Finding(
                rule=rule.id, severity=rule.severity, path=path,
                line=line, col=0, message=message,
            )
        )

    documented = spec.documented_verbs()
    client_trees = [find(suffix) for suffix in spec.CLIENT_FILES]
    clients = [(p, t) for p, t in client_trees if t is not None]
    sent = {}  # verb -> (path, line), first sender wins
    for path, tree in clients:
        for verb, line in extract_sent_verbs(tree).items():
            sent.setdefault(verb, (path, line))

    for layer in sorted(spec.SERVER_FILES):
        server_path, server_tree = find(spec.SERVER_FILES[layer])
        if server_tree is None:
            continue
        handled = extract_handled_verbs(server_tree)
        declared = spec.verbs_for_layer(layer)
        for verb in sorted(set(handled) - declared):
            report(
                server_path, handled[verb],
                f"server registers a handler for verb {verb!r} not "
                f"declared for layer {layer!r} in protocol_spec.py — add "
                f"a spec entry",
            )
        table_line = min(handled.values()) if handled else 1
        for verb in sorted(declared - set(handled)):
            report(
                server_path, table_line,
                f"protocol_spec.py declares verb {verb!r} for layer "
                f"{layer!r} but this server never handles it",
            )
        if len(clients) == len(spec.CLIENT_FILES):
            for verb in sorted(declared & set(handled) - set(sent)):
                report(
                    server_path, handled[verb],
                    f"verb {verb!r} is handled here but no client ever "
                    f"sends it — dead protocol surface",
                )
    for verb in sorted(set(sent) - documented):
        path, line = sent[verb]
        report(
            path, line,
            f"client sends verb {verb!r} that protocol_spec.py does not "
            f"document — add a spec entry",
        )

    codec_path, codec_tree = find(spec.CODEC_FILE)
    tables = _module_string_dict_keys(codec_tree) if codec_tree else {}
    for name in CODEC_TABLES:
        table = tables.get(name)
        if table is None:
            continue  # table absent: nothing to diff (stub trees)
        for verb in sorted(set(table) - documented):
            report(
                codec_path, table[verb],
                f"{name} has an entry for verb {verb!r} that "
                f"protocol_spec.py does not declare — add a spec entry",
            )
        table_line = min(table.values())
        for verb in sorted(documented - set(table)):
            report(
                codec_path, table_line,
                f"protocol_spec.py declares verb {verb!r} but {name} has "
                f"no entry for it",
            )
    return findings


# -- project orchestration ---------------------------------------------------


@dataclass
class _Unit:
    """One analyzed function with its CFG (effects filled in)."""

    path: str
    module: str
    cls_name: str
    func: object
    cfg: object


class ProjectAnalysis:
    """Run the flow checks over a set of parsed files."""

    def __init__(self, files):
        """``files``: list of ``(path_str, module, tree, source)``."""
        self.files = sorted(files, key=lambda f: f[0])
        self.callgraph = CallGraph((m, t) for _, m, t, _ in self.files)
        self.annotations = {
            m: FileAnnotations(src) for _, m, _, src in self.files
        }
        self.shared = SharedModel(
            ((m, t) for _, m, t, _ in self.files),
            self.callgraph,
            self.annotations,
        )
        self.summaries = {}
        for _, module, tree, _ in self.files:
            for cls_name, func in iter_functions(tree):
                key = (module, cls_name or "", func.name)
                self.summaries[key] = compute_summary(
                    module, cls_name, func, self.shared, self.callgraph
                )
        self.suppressed = 0

    def _suppressed_by_annotation(self, module, func, *lines) -> bool:
        notes = self.annotations.get(module)
        if notes is None:
            return False
        reason = notes.atomic_reason(*(lines + (func.lineno,)))
        if reason is not None:
            self.suppressed += 1
            return True
        return False

    def run(self, rules) -> list:
        """All findings of the selected ``rules``, sorted."""
        by_id = {rule.id: rule for rule in rules}
        findings = []
        units = []
        reliances = {}  # Loc -> set of lock names
        want_flow = "FLOW001" in by_id or "FLOW002" in by_id
        if want_flow:
            for path, module, tree, _ in self.files:
                for cls_name, func in iter_functions(tree):
                    ctx = _FunctionContext(
                        module, cls_name, func, self.shared,
                        self.callgraph, self.summaries,
                    )
                    cfg = build_cfg(func)
                    result = analyze_flow001(ctx, cfg)
                    units.append(_Unit(path, module, cls_name or "", func, cfg))
                    for loc, names in result.reliances.items():
                        reliances.setdefault(loc, set()).update(names)
                    if "FLOW001" not in by_id:
                        continue
                    rule = by_id["FLOW001"]
                    qual = f"{cls_name}.{func.name}" if cls_name else func.name
                    for loc, read_line, write_line in sorted(result.pairs):
                        if self._suppressed_by_annotation(
                            module, func, write_line, read_line
                        ):
                            continue
                        findings.append(
                            Finding(
                                rule=rule.id, severity=rule.severity,
                                path=path, line=write_line, col=0,
                                message=(
                                    f"{qual} reads shared {loc.label} at "
                                    f"line {read_line} and writes it back "
                                    f"here with a suspension point in "
                                    f"between; hold one lock across the "
                                    f"gap or annotate "
                                    f"'# repro: atomic=<reason>'"
                                ),
                            )
                        )
        if "FLOW002" in by_id:
            findings.extend(self._check_flow002(by_id["FLOW002"], units,
                                                reliances))
        if "FLOW003" in by_id:
            findings.extend(
                check_protocol(
                    [(path, tree) for path, _, tree, _ in self.files],
                    by_id["FLOW003"],
                )
            )
        return sorted(findings, key=Finding.sort_key)

    # -- FLOW002 ---------------------------------------------------------------

    def _check_flow002(self, rule, units, reliances) -> list:
        findings = []

        def report(unit, line, message):
            if self._suppressed_by_annotation(unit.module, unit.func, line):
                return
            findings.append(
                Finding(
                    rule=rule.id, severity=rule.severity, path=unit.path,
                    line=line, col=0, message=message,
                )
            )

        for unit in units:
            qual = (
                f"{unit.cls_name}.{unit.func.name}"
                if unit.cls_name else unit.func.name
            )
            acquired = {}  # lock name -> first acquire line
            released_safely = set()
            for node in unit.cfg.nodes:
                for name, line in node.effects.acquires:
                    acquired.setdefault(name, line)
                for name in node.effects.releases:
                    if node.in_finally:
                        released_safely.add(name)
                # (b) awaiting a callee that re-takes a lock held here
                held = {n for n, _ in node.lock_pairs}
                if held:
                    for key in node.effects.awaited_callees:
                        summary = self.summaries.get(key)
                        if summary is None:
                            continue
                        for name in sorted(summary.acquires & held):
                            callee = ".".join(p for p in key[1:] if p)
                            report(
                                unit, node.line,
                                f"{qual} awaits {callee} while holding "
                                f"lock {name}, and the callee acquires "
                                f"the same lock — asyncio locks are not "
                                f"reentrant (deadlock)",
                            )
            # (a) manual acquire without a finally-guaranteed release
            for name in sorted(set(acquired) - released_safely):
                report(
                    unit, acquired[name],
                    f"{qual} acquires lock {name} manually but no "
                    f"release() is guaranteed on every exit path; "
                    f"release it in a finally block or use 'async with'",
                )
        # (c) direct writes bypassing a lock FLOW001 relies on
        for loc in sorted(reliances, key=lambda l: (l.module, l.owner, l.name)):
            locknames = reliances[loc]
            for unit in units:
                if unit.func.name == "__init__":
                    continue  # constructors run before the instance is shared
                qual = (
                    f"{unit.cls_name}.{unit.func.name}"
                    if unit.cls_name else unit.func.name
                )
                for node in unit.cfg.nodes:
                    if loc not in node.effects.direct_writes:
                        continue
                    held = {n for n, _ in node.lock_pairs}
                    if held & locknames:
                        continue
                    report(
                        unit, node.line,
                        f"{qual} writes shared {loc.label} without "
                        f"holding {' or '.join(sorted(locknames))}, but "
                        f"an await-spanning read-modify-write elsewhere "
                        f"relies on that lock; take the lock or annotate "
                        f"'# repro: atomic=<reason>'",
                    )
        return findings
