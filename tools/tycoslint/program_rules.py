"""Whole-program tycoslint rules (TY101 - TY121).

These rules run against the :class:`~tools.tycoslint.project.ProjectModel`
built by pass 1, so they can see relationships no single AST contains:

* **TY100s fork-safety** -- process-wide mutable state is only safe to
  own (and mutate) in the modules registered in
  :data:`~tools.tycoslint.registry.CACHE_MODULES`; multiprocessing and
  shared-memory primitives only belong to
  :data:`~tools.tycoslint.registry.PARALLEL_MODULES`; and nothing may
  write module-level state after a pool has been spawned in the same
  function, because the workers already forked a snapshot of it.
* **TY110s determinism** -- iteration order of a ``set`` of strings
  depends on ``PYTHONHASHSEED``; ``argsort`` tie order depends on the
  sort kind; environment reads at import time freeze configuration
  before tests/CLIs can set it; wall-clock calls inside report-building
  modules make two byte-identical runs serialize differently.
* **TY120s gate coverage** -- every module registered as a fast path in
  :data:`~tools.tycoslint.registry.FAST_PATH_GATES` owes the repository
  a test that imports it and asserts equality against its reference.

Each rule names the registry it checks against, so the fix for a false
positive is always explicit: either correct the code or register the
module (reviewed in the same diff).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

from tools.tycoslint.engine import ProjectRule, Violation, register
from tools.tycoslint.project import ModuleInfo, ProjectModel
from tools.tycoslint.registry import (
    CACHE_MODULES,
    FAST_PATH_GATES,
    PARALLEL_MODULES,
    POOL_SPAWNERS,
    REPORT_MODULES,
    STORE_FILENAMES,
    STORE_MODULES,
)

__all__ = [
    "ForeignStateMutationRule",
    "MultiprocessingOutsideParallelRule",
    "CacheWriteAfterSpawnRule",
    "UnsortedSetIterationRule",
    "UnstableArgsortRule",
    "ImportTimeEnvReadRule",
    "WallClockInReportRule",
    "MmapOutsideStoreRule",
    "MissingExactnessGateRule",
]

#: Method names that mutate a container (or clear a memo) in place.
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "clear", "remove", "discard",
        "appendleft", "extendleft", "cache_clear",
    }
)


def _repro_module(info: ModuleInfo) -> bool:
    """Whether ``info`` is a non-test module of the ``repro`` package."""
    return not info.is_test and (
        info.name == "repro" or info.name.startswith("repro.")
    )


def _root_functions(tree: ast.Module) -> List[ast.AST]:
    """Outermost function definitions (nested defs stay inside their root)."""
    roots: List[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                roots.append(child)
            else:
                visit(child)

    visit(tree)
    return roots


def _resolve_state(
    expr: ast.AST, info: ModuleInfo, model: ProjectModel
) -> Optional[Tuple[str, str]]:
    """Resolve an expression to ``(owner module, state name)`` if it names
    module-level mutable state anywhere in the project.

    Handles the three spellings the repo uses: a bare name in the owning
    module (``_WORKER_STATE``), a ``from mod import NAME`` binding, and a
    module-attribute access (``parallel._WORKER_STATE``).
    """
    if isinstance(expr, ast.Name):
        if expr.id in info.state:
            return (info.name, expr.id)
        bound = info.bindings.get(expr.id)
        if bound is not None and bound[1] is not None:
            key = (bound[0], bound[1])
            if key in model.state:
                return key
        return None
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        bound = info.bindings.get(expr.value.id)
        if bound is None:
            return None
        module, attr = bound
        candidates = [module] if attr is None else [f"{module}.{attr}"]
        for candidate in candidates:
            key = (candidate, expr.attr)
            if key in model.state:
                return key
    return None


def _iter_state_mutations(
    scope: ast.AST, info: ModuleInfo, model: ProjectModel
) -> Iterator[Tuple[ast.AST, Tuple[str, str]]]:
    """Yield ``(node, (owner, name))`` for each mutation of module-level
    state inside ``scope`` (a function body)."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                resolved = _resolve_state(node.func.value, info, model)
                if resolved is not None:
                    yield node, resolved
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    resolved = _resolve_state(target.value, info, model)
                    if resolved is not None:
                        yield node, resolved
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    resolved = _resolve_state(target.value, info, model)
                    if resolved is not None:
                        yield node, resolved
        elif isinstance(node, ast.Global):
            for name in node.names:
                if (info.name, name) in model.state:
                    yield node, (info.name, name)


@register
class ForeignStateMutationRule(ProjectRule):
    """TY101: process-wide mutable state only in registered cache modules.

    A module-level container, memo cache, or ``global``-rebound name that
    some function mutates is process-wide state: after ``fork()`` every
    worker inherits a snapshot, and writes silently diverge between
    parent and children.  Only the modules registered in
    ``registry.CACHE_MODULES`` -- whose state is audited as append-only
    or repopulated by pool initializers -- may own such state.
    Import-time initialization is pre-fork and therefore exempt; the rule
    fires on mutations inside function bodies.
    """

    code = "TY101"
    name = "unregistered-cache-state"
    description = "module-level mutable state mutated outside a registered cache module"

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        for info in project.modules.values():
            if not _repro_module(info):
                continue
            path = _path_of(info)
            for scope in _root_functions(info.tree):
                for node, (owner, state_name) in _iter_state_mutations(
                    scope, info, project
                ):
                    if owner in CACHE_MODULES:
                        continue
                    record = project.state[(owner, state_name)]
                    yield self.violation(
                        node,
                        f"mutates module-level state {owner}.{state_name} "
                        f"({record.kind}, defined at line {record.line}) but "
                        f"{owner} is not registered in "
                        "tools.tycoslint.registry.CACHE_MODULES; workers fork "
                        "a stale snapshot of it",
                        path,
                    )
            # A memo cache mutates itself on every call, so its mere
            # definition in an unregistered module is already a hazard.
            for record in info.state.values():
                if record.kind == "lru_cache" and info.name not in CACHE_MODULES:
                    yield Violation(
                        code=self.code,
                        message=(
                            f"lru_cache memo {info.name}.{record.name} lives in "
                            "a module not registered in CACHE_MODULES; register "
                            "it (and audit fork-safety) or drop the cache"
                        ),
                        path=str(path),
                        line=record.line,
                        col=0,
                        severity=self.severity,
                    )


@register
class MultiprocessingOutsideParallelRule(ProjectRule):
    """TY102: multiprocessing / shared-memory only in ``repro.analysis.parallel``.

    Pool and ``SharedMemory`` lifecycles are easy to leak and hard to
    audit when spread across modules; the repo concentrates them in the
    modules registered in ``registry.PARALLEL_MODULES`` so fork-safety
    review has one place to look.  Everything else submits work through
    ``pooled_map`` / ``scan_pairs``.
    """

    code = "TY102"
    name = "multiprocessing-outside-parallel"
    description = "multiprocessing/shared_memory primitives outside registered parallel modules"

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        for info in project.modules.values():
            if not _repro_module(info) or info.name in PARALLEL_MODULES:
                continue
            path = _path_of(info)
            for node in ast.walk(info.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        root = alias.name.split(".")[0]
                        if root == "multiprocessing":
                            yield self.violation(
                                node,
                                f"imports {alias.name}; pool/shared-memory "
                                "lifecycles belong to the modules in "
                                "tools.tycoslint.registry.PARALLEL_MODULES "
                                "(use pooled_map)",
                                path,
                            )
                elif isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    if module.split(".")[0] == "multiprocessing":
                        yield self.violation(
                            node,
                            f"imports from {module}; pool/shared-memory "
                            "lifecycles belong to the modules in "
                            "tools.tycoslint.registry.PARALLEL_MODULES "
                            "(use pooled_map)",
                            path,
                        )
                    elif module == "concurrent.futures" and any(
                        alias.name == "ProcessPoolExecutor" for alias in node.names
                    ):
                        yield self.violation(
                            node,
                            "imports ProcessPoolExecutor; pool lifecycles "
                            "belong to the modules in "
                            "tools.tycoslint.registry.PARALLEL_MODULES "
                            "(use pooled_map)",
                            path,
                        )


@register
class CacheWriteAfterSpawnRule(ProjectRule):
    """TY103: no module-level state writes after a pool spawn in one function.

    Workers fork (or pickle) their view of the parent at spawn time; a
    write to module-level state later in the same function only updates
    the parent, so the parent and its workers silently disagree.  Fires
    on any resolved state mutation whose line follows a call to one of
    ``registry.POOL_SPAWNERS`` in the same function body -- registered
    cache modules included, because registration certifies pre-spawn
    discipline, not post-spawn writes.
    """

    code = "TY103"
    name = "cache-write-after-spawn"
    description = "module-level state written after a pool spawn in the same function"

    @staticmethod
    def _spawn_line(scope: ast.AST) -> Optional[int]:
        spawn: Optional[int] = None
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in POOL_SPAWNERS:
                if spawn is None or node.lineno < spawn:
                    spawn = node.lineno
        return spawn

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        for info in project.modules.values():
            if not _repro_module(info):
                continue
            path = _path_of(info)
            for scope in _root_functions(info.tree):
                spawn = self._spawn_line(scope)
                if spawn is None:
                    continue
                for node, (owner, state_name) in _iter_state_mutations(
                    scope, info, project
                ):
                    if getattr(node, "lineno", 0) > spawn:
                        yield self.violation(
                            node,
                            f"writes {owner}.{state_name} after a pool spawn "
                            f"at line {spawn} in the same function; workers "
                            "already forked and will not see the write",
                            path,
                        )


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically-certain set expressions."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra: at least one certain-set operand makes the result a set.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _set_typed_locals(scope: ast.AST) -> Set[str]:
    """Names assigned a certain-set expression (and never anything else)."""
    set_named: Set[str] = set()
    other: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    (set_named if _is_set_expr(node.value) else other).add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.value is not None:
                (set_named if _is_set_expr(node.value) else other).add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    other.add(leaf.id)
    return set_named - other


@register
class UnsortedSetIterationRule(ProjectRule):
    """TY111: no bare iteration over sets in result-producing code.

    Set iteration order for strings depends on ``PYTHONHASHSEED``, so a
    loop, comprehension, or ``list()``/``join()`` over a set can change
    output ordering between two otherwise identical runs.  Membership
    tests, ``len()``, and ``sorted()`` are all fine -- the rule flags the
    iteration sinks only, for expressions that are syntactically certain
    to be sets (literals, comprehensions, ``set()`` calls and their
    algebra, locals assigned only those, module-level set state).
    """

    code = "TY111"
    name = "unsorted-set-iteration"
    description = "iteration over a set without sorted(); order depends on PYTHONHASHSEED"
    # Heuristic (set-ness is inferred syntactically), so it reports as a
    # warning -- still gating, but distinguishable in JSON output.
    severity = "warning"

    _consumers = frozenset({"list", "tuple", "enumerate"})
    #: Callables whose result does not depend on iteration order; a
    #: comprehension fed straight into one of these is sanctioned.
    _order_insensitive = frozenset(
        {"sorted", "min", "max", "any", "all", "len", "set", "frozenset"}
    )

    def _sanctioned_nodes(self, tree: ast.Module) -> Set[int]:
        """ids of comprehension nodes consumed by order-insensitive calls."""
        sanctioned: Set[int] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._order_insensitive
            ):
                for arg in node.args:
                    if isinstance(
                        arg, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                    ):
                        sanctioned.add(id(arg))
        return sanctioned

    def _is_set_like(
        self,
        node: ast.AST,
        locals_: Set[str],
        info: ModuleInfo,
        model: ProjectModel,
    ) -> bool:
        if _is_set_expr(node):
            return True
        if isinstance(node, ast.Name) and node.id in locals_:
            return True
        resolved = _resolve_state(node, info, model)
        if resolved is not None and model.state[resolved].kind == "set":
            return True
        return False

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        for info in project.modules.values():
            if not _repro_module(info):
                continue
            path = _path_of(info)
            sanctioned = self._sanctioned_nodes(info.tree)
            scopes: List[ast.AST] = [info.tree]
            scopes.extend(_root_functions(info.tree))
            for scope in scopes:
                locals_ = _set_typed_locals(scope) if scope is not info.tree else set()
                walk = (
                    ast.walk(scope)
                    if scope is not info.tree
                    else _module_level_walk(info.tree)
                )
                for node in walk:
                    yield from self._check_node(
                        node, locals_, info, project, path, sanctioned
                    )

    def _check_node(
        self,
        node: ast.AST,
        locals_: Set[str],
        info: ModuleInfo,
        model: ProjectModel,
        path: Path,
        sanctioned: Set[int],
    ) -> Iterator[Violation]:
        message = (
            "iterates a set; wrap in sorted() -- set order depends on "
            "PYTHONHASHSEED for strings"
        )
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if self._is_set_like(node.iter, locals_, info, model):
                yield self.violation(node.iter, message, path)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            if id(node) in sanctioned:
                return
            for generator in node.generators:
                if self._is_set_like(generator.iter, locals_, info, model):
                    yield self.violation(generator.iter, message, path)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in self._consumers
                and node.args
                and self._is_set_like(node.args[0], locals_, info, model)
            ):
                yield self.violation(node, message, path)
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and node.args
                and self._is_set_like(node.args[0], locals_, info, model)
            ):
                yield self.violation(node, message, path)


def _module_level_walk(tree: ast.Module) -> Iterator[ast.AST]:
    """Walk a module's import-time statements, skipping function bodies."""
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack = list(ast.iter_child_nodes(node)) + stack


@register
class UnstableArgsortRule(ProjectRule):
    """TY112: ``argsort`` needs ``kind="stable"`` in repro code.

    numpy's default introsort breaks ties in an implementation-defined
    order, so the index permutation for equal keys can differ across
    numpy versions and platforms.  Every stitch/dedupe/ranking path in
    this repo pins ``kind="stable"`` so tie order is the input order,
    bit-reproducibly.
    """

    code = "TY112"
    name = "unstable-argsort"
    description = 'argsort without kind="stable"; tie order is implementation-defined'

    _stable_kinds = ("stable", "mergesort")

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        for info in project.modules.values():
            if not _repro_module(info):
                continue
            path = _path_of(info)
            for node in ast.walk(info.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                is_argsort = (
                    isinstance(func, ast.Attribute) and func.attr == "argsort"
                ) or (isinstance(func, ast.Name) and func.id == "argsort")
                if not is_argsort:
                    continue
                kind = None
                for keyword in node.keywords:
                    if keyword.arg == "kind" and isinstance(keyword.value, ast.Constant):
                        kind = keyword.value.value
                if kind not in self._stable_kinds:
                    yield self.violation(
                        node,
                        'argsort without kind="stable"; ties come back in an '
                        "implementation-defined order, breaking bit "
                        "reproducibility across numpy builds",
                        path,
                    )


@register
class ImportTimeEnvReadRule(ProjectRule):
    """TY113: no environment reads at import time in repro modules.

    ``os.environ`` read during import freezes configuration at whatever
    the first importer saw, so tests and CLIs that set variables later
    silently configure nothing, and import order becomes behavior.  Read
    the environment inside a function (or accept an argument) instead.
    """

    code = "TY113"
    name = "import-time-env-read"
    description = "os.environ read at module import time"

    @staticmethod
    def _is_env_read(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "environ":
            return isinstance(node.value, ast.Name) and node.value.id == "os"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "getenv":
                return isinstance(func.value, ast.Name) and func.value.id == "os"
            if isinstance(func, ast.Name) and func.id == "getenv":
                return True
        if isinstance(node, ast.Name) and node.id == "environ":
            return True
        return False

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        for info in project.modules.values():
            if not _repro_module(info):
                continue
            path = _path_of(info)
            for node in _module_level_walk(info.tree):
                if self._is_env_read(node):
                    yield self.violation(
                        node,
                        "reads the environment at import time; configuration "
                        "freezes at first import and import order becomes "
                        "behavior -- read inside a function instead",
                        path,
                    )


@register
class WallClockInReportRule(ProjectRule):
    """TY114: no wall-clock calls inside registered report modules.

    The determinism sanitizer byte-diffs serialized reports; a timestamp
    or duration computed inside a module registered in
    ``registry.REPORT_MODULES`` would make every pair of runs differ.
    Timing belongs to the search layer (``SearchStats``); report modules
    only serialize what they are handed.
    """

    code = "TY114"
    name = "wall-clock-in-report"
    description = "wall-clock call inside a registered report module"

    _clock_attrs = frozenset({"time", "perf_counter", "monotonic", "now", "utcnow", "today"})

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        for info in project.modules.values():
            if info.name not in REPORT_MODULES or info.is_test:
                continue
            path = _path_of(info)
            for node in ast.walk(info.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr not in self._clock_attrs:
                    continue
                base = func.value
                base_name = None
                if isinstance(base, ast.Name):
                    base_name = base.id
                elif isinstance(base, ast.Attribute):
                    base_name = base.attr
                if base_name in ("time", "datetime", "date"):
                    yield self.violation(
                        node,
                        f"{base_name}.{func.attr}() inside a report module; "
                        "report payloads must be clock-free so byte-diffing "
                        "two runs means something (pass timing in from the "
                        "search layer if needed)",
                        path,
                    )


@register
class MmapOutsideStoreRule(ProjectRule):
    """TY116: memory maps and store file names only in the store module.

    The on-disk series store (``repro.analysis.store``) is a format
    contract -- a manifest plus a raw float64 matrix -- and a memory-map
    lifetime.  A second module opening ``np.memmap``/``mmap`` or
    spelling the store file names would be a second, unreviewed
    interpreter of that contract; everything else attaches through
    ``SeriesStore.open``/``SeriesStore.write``, which validate the
    manifest and own the mapping.  Registered owners live in
    ``registry.STORE_MODULES``.
    """

    code = "TY116"
    name = "mmap-outside-store"
    description = "mmap use or store file name outside registered store modules"

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        for info in project.modules.values():
            if not _repro_module(info) or info.name in STORE_MODULES:
                continue
            path = _path_of(info)
            for node in ast.walk(info.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] == "mmap":
                            yield self.violation(
                                node,
                                "imports mmap; memory maps belong to the "
                                "modules in tools.tycoslint.registry."
                                "STORE_MODULES (attach via "
                                "repro.analysis.store.SeriesStore)",
                                path,
                            )
                elif isinstance(node, ast.ImportFrom):
                    if (node.module or "").split(".")[0] == "mmap":
                        yield self.violation(
                            node,
                            "imports from mmap; memory maps belong to the "
                            "modules in tools.tycoslint.registry."
                            "STORE_MODULES (attach via "
                            "repro.analysis.store.SeriesStore)",
                            path,
                        )
                elif isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Attribute) and func.attr == "memmap":
                        yield self.violation(
                            node,
                            "calls memmap(); memory maps belong to the "
                            "modules in tools.tycoslint.registry."
                            "STORE_MODULES (attach via "
                            "repro.analysis.store.SeriesStore)",
                            path,
                        )
                elif isinstance(node, ast.Constant):
                    if node.value in STORE_FILENAMES:
                        yield self.violation(
                            node,
                            f"spells the store file name {node.value!r}; the "
                            "store layout is a format contract owned by "
                            "tools.tycoslint.registry.STORE_MODULES (go "
                            "through repro.analysis.store.SeriesStore)",
                            path,
                        )


@register
class MissingExactnessGateRule(ProjectRule):
    """TY121: every registered fast path has a bit-exactness gate test.

    ``registry.FAST_PATH_GATES`` lists the modules whose results are
    claimed identical to a reference implementation.  This rule checks
    the claim is *tested*: some test module must import the fast-path
    module and contain an equality assertion (``assert ... == ...`` or a
    ``numpy.testing`` equality helper).  Runs only when test files are in
    scope -- lint ``src tests`` together, as CI does.
    """

    code = "TY121"
    name = "missing-exactness-gate"
    description = "registered fast-path module without an equality-asserting test"

    _equality_helpers = frozenset(
        {"array_equal", "assert_array_equal", "assert_equal", "assert_allclose"}
    )

    def _asserts_equality(self, tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                for leaf in ast.walk(node.test):
                    if isinstance(leaf, ast.Compare) and any(
                        isinstance(op, ast.Eq) for op in leaf.ops
                    ):
                        return True
            elif isinstance(node, ast.Call):
                func = node.func
                name = None
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                if name in self._equality_helpers:
                    return True
        return False

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        if not project.has_tests:
            return
        for dotted, reference in sorted(FAST_PATH_GATES.items()):
            info = project.modules.get(dotted)
            if info is None or info.is_test:
                continue
            gates = [
                test
                for test in project.tests_importing(dotted)
                if self._asserts_equality(test.tree)
            ]
            if not gates:
                yield Violation(
                    code=self.code,
                    message=(
                        f"fast path {dotted} is registered in FAST_PATH_GATES "
                        f"(reference: {reference}) but no test module imports "
                        "it and asserts equality; add a bit-exactness gate "
                        "test or unregister the module"
                    ),
                    path=info.path,
                    line=1,
                    col=0,
                    severity=self.severity,
                )


def _path_of(info: ModuleInfo) -> Path:
    return Path(info.path)
