"""Repository-specific tycoslint rules (TY001 - TY008).

Each rule machine-enforces an invariant the TYCOS reproduction relies on
but that generic linters do not check:

* TY001 -- float equality comparisons inside the numerical packages
  (``repro.mi``, ``repro.core``) silently break under round-off.
* TY002 -- unseeded randomness outside tests destroys the determinism
  guarantee (same ``TycosConfig.seed`` => bit-identical results).
* TY003 -- mutable default arguments alias state across calls.
* TY004 -- every public ``repro`` module must declare ``__all__`` and
  every listed name must actually exist, keeping the API surface honest.
* TY005 -- bare ``except:`` and ``except Exception: pass`` swallow the
  very contract violations this repo installs.
* TY006 -- ``time.time()`` is wall-clock and jumps with NTP; interval
  timing must use ``time.perf_counter()`` (the sanctioned wall-clock
  site is the ``SearchStats`` timing in ``repro/core/tycos.py``).
* TY007 -- ``scipy.special.digamma`` must only be called through the
  shared lookup table in ``repro/mi/digamma.py``; direct calls re-pay
  the transcendental per window and bypass the process-wide cache.
* TY008 -- PAA block-mean downsampling must only be built through
  ``repro/core/pyramid.py``; a hand-rolled ``reshape(...).mean(...)``
  elsewhere silently diverges from the pyramid containment lemma the
  multiscale search's recall guarantee rests on.

The cross-module families (TY101+: fork-safety, determinism, gate
coverage) live in :mod:`tools.tycoslint.program_rules` -- they need the
whole-program model, not a single AST.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple, Union

from tools.tycoslint.engine import Rule, Violation, is_test_path, register

__all__ = [
    "FloatEqualityRule",
    "UnseededRandomRule",
    "MutableDefaultRule",
    "DunderAllRule",
    "SilentExceptRule",
    "WallClockRule",
    "DigammaRule",
    "PaaConstructionRule",
]


def _in_packages(path: Path, packages: Tuple[str, ...]) -> bool:
    posix = path.as_posix()
    return any(f"/{pkg}/" in posix or posix.startswith(f"{pkg}/") for pkg in packages)


def _is_np_random_attr(node: ast.AST) -> Optional[str]:
    """Return the attribute name when ``node`` is ``np.random.<attr>``."""
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if (
        isinstance(value, ast.Attribute)
        and value.attr == "random"
        and isinstance(value.value, ast.Name)
        and value.value.id in ("np", "numpy")
    ):
        return node.attr
    return None


@register
class FloatEqualityRule(Rule):
    """TY001: no ``==`` / ``!=`` against float literals in repro.mi / repro.core.

    Round-off makes exact float comparison order-of-evaluation dependent;
    the numerical packages must compare with a tolerance
    (``math.isclose`` / ``np.isclose``) or restructure the test.
    """

    code = "TY001"
    name = "float-equality"
    description = "float ==/!= comparison in the numerical packages"

    _packages = ("repro/mi", "repro/core")

    def applies_to(self, path: Path) -> bool:
        return _in_packages(path, self._packages)

    @staticmethod
    def _is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return True
        # A negated float literal parses as UnaryOp(USub, Constant).
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return FloatEqualityRule._is_float_literal(node.operand)
        return False

    def check(self, tree: ast.Module, path: Path) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_float_literal(left) or self._is_float_literal(right):
                    yield self.violation(
                        node,
                        "float equality comparison; use math.isclose/np.isclose "
                        "or an explicit tolerance",
                        path,
                    )
                    break


@register
class UnseededRandomRule(Rule):
    """TY002: no unseeded randomness outside tests.

    Flags ``np.random.default_rng()`` called without a seed and any call
    into the legacy global RNG (``np.random.normal`` etc.), both of which
    break the same-seed => same-result determinism contract.
    """

    code = "TY002"
    name = "unseeded-random"
    description = "unseeded np.random.default_rng() / legacy global RNG call"

    # Constructors that are fine *when given a seed*.
    _seedable = ("default_rng", "RandomState", "Generator", "SeedSequence")

    def applies_to(self, path: Path) -> bool:
        return not is_test_path(path)

    @staticmethod
    def _has_seed(call: ast.Call) -> bool:
        if call.args:
            return not (
                isinstance(call.args[0], ast.Constant) and call.args[0].value is None
            )
        return any(kw.arg == "seed" for kw in call.keywords)

    def check(self, tree: ast.Module, path: Path) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            attr = _is_np_random_attr(node.func)
            if attr is None:
                # `from numpy.random import default_rng` style.
                if isinstance(node.func, ast.Name) and node.func.id == "default_rng":
                    if not self._has_seed(node):
                        yield self.violation(
                            node, "default_rng() called without a seed", path
                        )
                continue
            if attr in self._seedable:
                if not self._has_seed(node):
                    yield self.violation(
                        node, f"np.random.{attr}() called without a seed", path
                    )
            else:
                yield self.violation(
                    node,
                    f"np.random.{attr}() uses the unseeded global RNG; "
                    "thread a seeded np.random.Generator instead",
                    path,
                )


@register
class MutableDefaultRule(Rule):
    """TY003: no mutable default arguments.

    A ``def f(x=[])`` default is evaluated once and shared across calls;
    use ``None`` plus an in-body fallback (or a dataclass field factory).
    """

    code = "TY003"
    name = "mutable-default"
    description = "mutable default argument"

    _mutable_calls = {
        "list", "dict", "set", "bytearray",
        "defaultdict", "OrderedDict", "Counter", "deque",
    }

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._mutable_calls
        return False

    def check(self, tree: ast.Module, path: Path) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.violation(
                        default,
                        f"mutable default argument in {name}(); "
                        "use None and initialize inside the body",
                        path,
                    )


@register
class DunderAllRule(Rule):
    """TY004: public repro modules declare ``__all__`` and it is honest.

    Every non-underscore module under the ``repro`` package must assign a
    literal ``__all__`` of strings, and each listed name must be defined
    or imported at module top level.
    """

    code = "TY004"
    name = "dunder-all"
    description = "missing or inconsistent __all__ in a public repro module"

    def applies_to(self, path: Path) -> bool:
        if not _in_packages(path, ("repro",)):
            return False
        stem = path.stem
        return stem == "__init__" or not stem.startswith("_")

    @staticmethod
    def _top_level_names(tree: ast.Module) -> Tuple[Set[str], bool]:
        """Names bound at module top level, plus a star-import flag."""
        names: Set[str] = set()
        has_star = False
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            names.add(leaf.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        has_star = True
                    else:
                        names.add(alias.asname or alias.name)
            elif isinstance(node, (ast.If, ast.Try)):
                # Common for TYPE_CHECKING / optional-dependency guards.
                sub = ast.Module(body=list(ast.iter_child_nodes(node)), type_ignores=[])
                sub_names, sub_star = DunderAllRule._top_level_names(sub)
                names |= sub_names
                has_star |= sub_star
        return names, has_star

    @staticmethod
    def _find_all(tree: ast.Module) -> Optional[Union[ast.Assign, ast.AnnAssign]]:
        """The top-level ``__all__`` assignment, annotated or not."""
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        return node
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "__all__"
                and node.value is not None
            ):
                return node
        return None

    def check(self, tree: ast.Module, path: Path) -> Iterator[Violation]:
        assign = self._find_all(tree)
        if assign is None:
            yield Violation(
                code=self.code,
                message="public module does not declare __all__",
                path=str(path),
                line=1,
                col=0,
            )
            return
        value = assign.value
        if not isinstance(value, (ast.List, ast.Tuple)):
            yield self.violation(assign, "__all__ must be a literal list/tuple", path)
            return
        entries: List[Tuple[str, ast.AST]] = []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                entries.append((element.value, element))
            else:
                yield self.violation(element, "__all__ entries must be string literals", path)
        defined, has_star = self._top_level_names(tree)
        if has_star:
            return  # cannot verify through a star import
        for name, element in entries:
            if name not in defined and name != "__version__":
                yield self.violation(
                    element, f"__all__ lists {name!r} which is not defined in the module", path
                )


@register
class SilentExceptRule(Rule):
    """TY005: no bare ``except:`` and no ``except Exception: pass``.

    Bare excepts catch ``KeyboardInterrupt``/``SystemExit``; silently
    passing on ``Exception`` swallows contract violations.  Catch the
    narrowest exception that the handler can actually handle.
    """

    code = "TY005"
    name = "silent-except"
    description = "bare except or silently swallowed Exception"

    @staticmethod
    def _catches_broad(node: ast.ExceptHandler) -> bool:
        def is_broad(expr: ast.AST) -> bool:
            return isinstance(expr, ast.Name) and expr.id in ("Exception", "BaseException")

        if node.type is None:
            return False  # bare except reported separately
        if is_broad(node.type):
            return True
        if isinstance(node.type, ast.Tuple):
            return any(is_broad(e) for e in node.type.elts)
        return False

    @staticmethod
    def _is_silent(body: List[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and (stmt.value.value is Ellipsis or isinstance(stmt.value.value, str))
            ):
                continue  # docstring / ellipsis placeholders are still silent
            return False
        return True

    def check(self, tree: ast.Module, path: Path) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    node, "bare except: catches SystemExit/KeyboardInterrupt; "
                    "name the exception type", path,
                )
            elif self._catches_broad(node) and self._is_silent(node.body):
                yield self.violation(
                    node, "except Exception with a pass-only body silently "
                    "swallows errors; handle or re-raise", path,
                )


@register
class WallClockRule(Rule):
    """TY006: ``time.time()`` only for ``SearchStats`` timing.

    Interval measurement must use the monotonic ``time.perf_counter()``;
    the only sanctioned wall-clock site is the ``SearchStats`` timing in
    ``repro/core/tycos.py``.
    """

    code = "TY006"
    name = "wall-clock"
    description = "time.time() used outside SearchStats timing"

    _sanctioned = "repro/core/tycos.py"

    def applies_to(self, path: Path) -> bool:
        if is_test_path(path):
            return False
        return not path.as_posix().endswith(self._sanctioned)

    def check(self, tree: ast.Module, path: Path) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                yield self.violation(
                    node,
                    "time.time() is wall-clock; use time.perf_counter() for "
                    "intervals (SearchStats timing in repro/core/tycos.py is "
                    "the only sanctioned wall-clock site)",
                    path,
                )


@register
class DigammaRule(Rule):
    """TY007: scipy digamma only through ``repro/mi/digamma.py``.

    Every digamma argument in the KSG kernel is a small positive integer,
    so evaluations must come from the shared
    :class:`repro.mi.digamma.DigammaTable` (bit-identical, evaluated once
    per integer ever seen).  Direct ``scipy.special.digamma`` imports or
    attribute calls anywhere else re-pay the transcendental per window
    and silently bypass the process-wide cache.
    """

    code = "TY007"
    name = "direct-digamma"
    description = "scipy.special.digamma used outside repro/mi/digamma.py"

    _sanctioned = "repro/mi/digamma.py"

    def applies_to(self, path: Path) -> bool:
        if is_test_path(path):
            return False
        return not path.as_posix().endswith(self._sanctioned)

    _message = (
        "direct scipy.special.digamma use; route through "
        "repro.mi.digamma (shared_digamma_table / digamma_direct), the "
        "only sanctioned call site"
    )

    def check(self, tree: ast.Module, path: Path) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "scipy.special" and any(
                    alias.name == "digamma" for alias in node.names
                ):
                    yield self.violation(node, self._message, path)
            elif isinstance(node, ast.Attribute) and node.attr == "digamma":
                value = node.value
                if isinstance(value, ast.Name) and value.id == "special":
                    yield self.violation(node, self._message, path)
                elif (
                    isinstance(value, ast.Attribute)
                    and value.attr == "special"
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "scipy"
                ):
                    yield self.violation(node, self._message, path)


@register
class PaaConstructionRule(Rule):
    """TY008: PAA downsampling only through ``repro/core/pyramid.py``.

    The multiscale search's recall guarantee rests on the pyramid
    containment lemma, which is proved for exactly the block-mean
    aggregation (and tail handling) that :func:`repro.core.pyramid.paa_downsample`
    implements.  A hand-rolled ``values.reshape(m, factor).mean(axis=1)``
    -- or its ``np.add.reduceat`` equivalent -- elsewhere constructs a
    downsampled pair whose coordinate mapping nothing checks, so coarse
    hits would refine the wrong full-resolution regions without any test
    failing.  Build coarse levels through ``paa_downsample`` /
    ``build_level`` instead.
    """

    code = "TY008"
    name = "paa-outside-pyramid"
    description = "block-mean downsampling built outside repro/core/pyramid.py"

    _sanctioned = "repro/core/pyramid.py"

    def applies_to(self, path: Path) -> bool:
        if is_test_path(path):
            return False
        return not path.as_posix().endswith(self._sanctioned)

    _message = (
        "hand-rolled PAA block-mean downsampling; build coarse levels "
        "through repro.core.pyramid (paa_downsample / build_level), the "
        "only sanctioned construction site"
    )

    def check(self, tree: ast.Module, path: Path) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "mean":
                inner = func.value
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "reshape"
                ):
                    yield self.violation(node, self._message, path)
            elif func.attr == "reduceat":
                value = func.value
                if (
                    isinstance(value, ast.Attribute)
                    and value.attr == "add"
                    and isinstance(value.value, ast.Name)
                    and value.value.id in ("np", "numpy")
                ):
                    yield self.violation(node, self._message, path)
