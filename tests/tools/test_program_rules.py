"""Fixture tests for every whole-program rule (TY101 - TY121).

Each rule gets at least one firing fixture tree and one silent one,
built under ``tmp_path`` with the same ``src/repro`` / ``tests`` layout
as the real repository so module-name anchoring works unchanged.
"""

import textwrap

from tools.tycoslint.engine import lint_paths, resolve_rules

ALL_EXPORTS = "__all__ = []\n"


def lint_tree(tmp_path, files, select):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    report = lint_paths([tmp_path], resolve_rules(select=select))
    assert not report.parse_errors, report.parse_errors
    return report.violations


# --------------------------------------------------------------------- #
# TY101 unregistered cache state


class TestTY101:
    def test_fires_on_local_mutation_in_unregistered_module(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/memo.py": """
                    _MEMO = {}

                    def remember(key, value):
                        _MEMO[key] = value
                    __all__ = ["remember"]
                    """
            },
            ["TY101"],
        )
        assert [v.code for v in found] == ["TY101"]
        assert "repro.core.memo._MEMO" in found[0].message

    def test_fires_on_cross_module_mutation(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/owner.py": "_REGISTRY = {}\n__all__ = []\n",
                "src/repro/core/writer.py": """
                    from repro.core import owner

                    def poke():
                        owner._REGISTRY.clear()
                    __all__ = ["poke"]
                    """,
            },
            ["TY101"],
        )
        assert [v.code for v in found] == ["TY101"]
        assert "owner.py" not in found[0].path  # reported at the mutation site
        assert "writer.py" in found[0].path

    def test_fires_on_global_rebind_and_stray_lru_cache(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/toggle.py": """
                    import functools

                    _MODE = None

                    @functools.lru_cache(maxsize=8)
                    def lookup(n):
                        return n

                    def set_mode(mode):
                        global _MODE
                        _MODE = mode
                    __all__ = ["lookup", "set_mode"]
                    """
            },
            ["TY101"],
        )
        assert sorted(v.code for v in found) == ["TY101", "TY101"]
        messages = " ".join(v.message for v in found)
        assert "_MODE" in messages and "lru_cache" in messages

    def test_silent_in_registered_module_and_on_import_time_init(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                # repro.mi.digamma is registered in CACHE_MODULES.
                "src/repro/mi/digamma.py": """
                    _TABLE = {}

                    def grow(n):
                        _TABLE[n] = n
                    __all__ = ["grow"]
                    """,
                # Import-time population is pre-fork, hence exempt.
                "src/repro/core/const.py": """
                    _LOOKUP = {}
                    for key in ("a", "b"):
                        _LOOKUP[key] = key.upper()
                    __all__ = []
                    """,
            },
            ["TY101"],
        )
        assert found == []


# --------------------------------------------------------------------- #
# TY102 multiprocessing outside the parallel module


class TestTY102:
    def test_fires_on_multiprocessing_and_executor_imports(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/a.py": "import multiprocessing\n" + ALL_EXPORTS,
                "src/repro/core/b.py": "from multiprocessing import shared_memory\n"
                + ALL_EXPORTS,
                "src/repro/core/c.py": "from concurrent.futures import ProcessPoolExecutor\n"
                + ALL_EXPORTS,
            },
            ["TY102"],
        )
        assert [v.code for v in found] == ["TY102", "TY102", "TY102"]

    def test_silent_in_registered_parallel_module_and_on_threads(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                # repro.analysis.parallel is registered in PARALLEL_MODULES.
                "src/repro/analysis/parallel.py": """
                    from concurrent.futures import ProcessPoolExecutor
                    from multiprocessing import shared_memory
                    __all__ = []
                    """,
                # Thread pools do not fork; they are not this rule's business.
                "src/repro/core/t.py": "from concurrent.futures import ThreadPoolExecutor\n"
                + ALL_EXPORTS,
            },
            ["TY102"],
        )
        assert found == []


# --------------------------------------------------------------------- #
# TY103 state writes after pool spawn


class TestTY103:
    def test_fires_on_write_after_spawn(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/analysis/parallel.py": """
                    from concurrent.futures import ProcessPoolExecutor

                    _WORKER_STATE = {}

                    def run(tasks):
                        with ProcessPoolExecutor(max_workers=2) as pool:
                            out = list(pool.map(str, tasks))
                        _WORKER_STATE["last"] = out
                        return out
                    __all__ = ["run"]
                    """
            },
            ["TY103"],
        )
        assert [v.code for v in found] == ["TY103"]
        assert "after a pool spawn" in found[0].message

    def test_silent_when_write_precedes_spawn(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/analysis/parallel.py": """
                    from concurrent.futures import ProcessPoolExecutor

                    _WORKER_STATE = {}

                    def run(tasks):
                        _WORKER_STATE["pending"] = list(tasks)
                        with ProcessPoolExecutor(max_workers=2) as pool:
                            return list(pool.map(str, tasks))
                    __all__ = ["run"]
                    """
            },
            ["TY103"],
        )
        assert found == []


# --------------------------------------------------------------------- #
# TY111 unsorted set iteration


class TestTY111:
    def test_fires_on_set_loop_comprehension_and_list_call(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/m.py": """
                    def names(series):
                        pending = {"b", "a"}
                        for name in pending:
                            print(name)
                        squares = [n for n in {1, 2}]
                        return list(set(series)), squares
                    __all__ = ["names"]
                    """
            },
            ["TY111"],
        )
        assert [v.code for v in found] == ["TY111", "TY111", "TY111"]
        assert all(v.severity == "warning" for v in found)

    def test_fires_on_module_level_set_state_iteration(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/owner.py": "KNOWN = {'x', 'y'}\n__all__ = ['KNOWN']\n",
                "src/repro/core/user.py": """
                    from repro.core.owner import KNOWN

                    def dump():
                        return [k for k in KNOWN]
                    __all__ = ["dump"]
                    """,
            },
            ["TY111"],
        )
        assert [v.code for v in found] == ["TY111"]

    def test_silent_on_sorted_membership_and_order_insensitive_sinks(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/m.py": """
                    def names(series):
                        pending = {"b", "a"}
                        ordered = sorted(pending)
                        grid = {1, 2, 3}
                        top = sorted(g for g in grid if g > 1)
                        biggest = max(g for g in grid)
                        has = "b" in pending
                        count = len(pending)
                        return ordered, top, biggest, has, count
                    __all__ = ["names"]
                    """
            },
            ["TY111"],
        )
        assert found == []


# --------------------------------------------------------------------- #
# TY112 unstable argsort


class TestTY112:
    def test_fires_without_stable_kind(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/rank.py": """
                    import numpy as np

                    def order(scores):
                        return np.argsort(scores), scores.argsort(kind="quicksort")
                    __all__ = ["order"]
                    """
            },
            ["TY112"],
        )
        assert [v.code for v in found] == ["TY112", "TY112"]

    def test_silent_with_stable_kind_and_in_tests(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/rank.py": """
                    import numpy as np

                    def order(scores):
                        return scores.argsort(kind="stable")
                    __all__ = ["order"]
                    """,
                "tests/core/test_rank.py": """
                    import numpy as np

                    def test_order():
                        assert np.argsort([1, 2]) is not None
                    """,
            },
            ["TY112"],
        )
        assert found == []


# --------------------------------------------------------------------- #
# TY113 import-time environment reads


class TestTY113:
    def test_fires_on_top_level_reads(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/cfg.py": """
                    import os

                    DEBUG = os.environ.get("DEBUG", "")
                    HOME = os.getenv("HOME")
                    __all__ = ["DEBUG", "HOME"]
                    """
            },
            ["TY113"],
        )
        assert [v.code for v in found] == ["TY113", "TY113"]

    def test_silent_inside_functions_and_with_pragma(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/cfg.py": """
                    import os

                    FROZEN = os.environ.get(  # tycoslint: disable=TY113
                        "REPRO_CHECKS", ""
                    )

                    def debug_enabled():
                        return bool(os.environ.get("DEBUG"))
                    __all__ = ["FROZEN", "debug_enabled"]
                    """
            },
            ["TY113"],
        )
        assert found == []


# --------------------------------------------------------------------- #
# TY114 wall clock in report modules


class TestTY114:
    def test_fires_in_registered_report_module(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/experiments/summary.py": """
                    import time
                    from datetime import datetime

                    def build():
                        return {"at": datetime.now(), "t": time.perf_counter()}
                    __all__ = ["build"]
                    """
            },
            ["TY114"],
        )
        assert [v.code for v in found] == ["TY114", "TY114"]

    def test_silent_outside_report_modules(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/bench.py": """
                    import time

                    def measure():
                        return time.perf_counter()
                    __all__ = ["measure"]
                    """
            },
            ["TY114"],
        )
        assert found == []


# --------------------------------------------------------------------- #
# TY116 mmap / store-file confinement


class TestTY116:
    def test_fires_on_mmap_imports_outside_store(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/maps.py": "import mmap\n" + ALL_EXPORTS,
                "src/repro/analysis/sneaky.py": "from mmap import ACCESS_READ\n"
                + ALL_EXPORTS,
            },
            ["TY116"],
        )
        assert [v.code for v in found] == ["TY116", "TY116"]
        messages = " ".join(v.message for v in found)
        assert "STORE_MODULES" in messages

    def test_fires_on_memmap_call_and_store_filenames(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/analysis/reader.py": """
                    import numpy as np

                    def attach(path):
                        return np.memmap(path, dtype="float64", mode="r")
                    __all__ = ["attach"]
                    """,
                "src/repro/core/peek.py": """
                    def manifest_path(directory):
                        return directory / "manifest.json"
                    __all__ = ["manifest_path"]
                    """,
                "src/repro/core/raw.py": """
                    DATA = "series.bin"
                    __all__ = ["DATA"]
                    """,
            },
            ["TY116"],
        )
        assert [v.code for v in found] == ["TY116", "TY116", "TY116"]
        messages = " ".join(v.message for v in found)
        assert "SeriesStore" in messages

    def test_silent_in_store_module_and_tests(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                # The registered store module owns the map and the names.
                "src/repro/analysis/store.py": """
                    import numpy as np

                    MANIFEST_FILENAME = "manifest.json"
                    DATA_FILENAME = "series.bin"

                    def attach(path):
                        return np.memmap(path, dtype="float64", mode="r")
                    __all__ = ["MANIFEST_FILENAME", "DATA_FILENAME", "attach"]
                    """,
                # Consumers go through the store API: sanctioned.
                "src/repro/analysis/cascade.py": """
                    from repro.analysis.store import attach
                    __all__ = ["attach"]
                    """,
                # Tests may poke the files directly.
                "tests/analysis/test_store.py": """
                    import mmap

                    NAME = "manifest.json"
                    """,
            },
            ["TY116"],
        )
        assert found == []


# --------------------------------------------------------------------- #
# TY117 plan construction confinement


class TestTY117:
    def test_fires_on_stage_and_plan_constructors_outside_planner(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/analysis/adhoc.py": """
                    from repro.analysis.planner import ScanStage, SearchPlan, SegmentStage

                    def sneaky_plan():
                        return SearchPlan(stages=(SegmentStage(4), ScanStage()))
                    __all__ = ["sneaky_plan"]
                    """,
            },
            ["TY117"],
        )
        assert [v.code for v in found] == ["TY117", "TY117", "TY117"]
        messages = " ".join(v.message for v in found)
        assert "SearchPlan" in messages and "SegmentStage" in messages
        assert "plan_from_config" in messages

    def test_fires_on_attribute_style_construction(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/core/dispatch.py": """
                    from repro.analysis import planner

                    def build():
                        return planner.CoarsenStage(8)
                    __all__ = ["build"]
                    """,
            },
            ["TY117"],
        )
        assert [v.code for v in found] == ["TY117"]
        assert "CoarsenStage" in found[0].message

    def test_silent_in_planner_module_builders_and_tests(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                # The registered planner module owns the constructors.
                "src/repro/analysis/planner.py": """
                    class SegmentStage:
                        def __init__(self, n_segments):
                            self.n_segments = n_segments

                    class ScanStage:
                        pass

                    class SearchPlan:
                        def __init__(self, stages):
                            self.stages = stages

                    def segmented_plan(n_segments):
                        return SearchPlan(stages=(SegmentStage(n_segments), ScanStage()))
                    __all__ = ["SearchPlan", "SegmentStage", "ScanStage", "segmented_plan"]
                    """,
                # Consumers go through the builder functions: sanctioned.
                "src/repro/analysis/segmented.py": """
                    from repro.analysis.planner import segmented_plan

                    def search(n_segments):
                        return segmented_plan(n_segments)
                    __all__ = ["search"]
                    """,
                # Tests may construct stages directly.
                "tests/analysis/test_planner.py": """
                    from repro.analysis.planner import ScanStage, SearchPlan

                    def test_plan():
                        assert SearchPlan(stages=(ScanStage(),)) is not None
                    """,
            },
            ["TY117"],
        )
        assert found == []


# --------------------------------------------------------------------- #
# TY121 bit-exactness gate coverage


class TestTY121:
    def test_fires_when_no_test_asserts_equality(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                # repro.mi.digamma is registered in FAST_PATH_GATES.
                "src/repro/mi/digamma.py": "def table():\n    return 1\n__all__ = ['table']\n",
                # A test exists, but it never imports the fast path.
                "tests/mi/test_other.py": """
                    def test_other():
                        assert 1 == 1
                    """,
            },
            ["TY121"],
        )
        assert [v.code for v in found] == ["TY121"]
        assert "repro.mi.digamma" in found[0].message

    def test_importing_test_without_equality_assert_does_not_count(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/mi/digamma.py": "def table():\n    return 1\n__all__ = ['table']\n",
                "tests/mi/test_digamma.py": """
                    from repro.mi.digamma import table

                    def test_smoke():
                        assert table() is not None
                    """,
            },
            ["TY121"],
        )
        assert [v.code for v in found] == ["TY121"]

    def test_silent_with_equality_gate(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {
                "src/repro/mi/digamma.py": "def table():\n    return 1\n__all__ = ['table']\n",
                "tests/mi/test_digamma.py": """
                    from repro.mi.digamma import table

                    def test_matches_reference():
                        assert table() == 1
                    """,
            },
            ["TY121"],
        )
        assert found == []

    def test_skipped_entirely_without_tests_in_scope(self, tmp_path):
        found = lint_tree(
            tmp_path,
            {"src/repro/mi/digamma.py": "def table():\n    return 1\n__all__ = ['table']\n"},
            ["TY121"],
        )
        assert found == []
