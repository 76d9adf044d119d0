"""Unit tests for the tycoslint rule engine and every rule.

Each rule is exercised twice: a minimal bad snippet that must fire and a
minimal good snippet that must stay silent.  The engine and CLI are
tested on top of that (selection, scoping, exit codes).
"""

from pathlib import Path

import pytest

from tools.tycoslint.cli import main
from tools.tycoslint.engine import (
    is_test_path,
    lint_paths,
    lint_source,
    registered_rules,
    resolve_rules,
)

CORE_PATH = Path("src/repro/core/example.py")
MI_PATH = Path("src/repro/mi/example.py")
OTHER_PATH = Path("src/repro/data/example.py")
TEST_PATH = Path("tests/core/test_example.py")


def codes(source, path):
    return [v.code for v in lint_source(source, path, resolve_rules())]


# --------------------------------------------------------------------- #
# TY001 float equality


def test_ty001_fires_on_float_literal_comparison():
    assert "TY001" in codes("ok = value == 0.5\n__all__ = ['ok']\n", MI_PATH)


def test_ty001_fires_on_negative_float_and_noteq():
    assert "TY001" in codes("ok = x != -1.0\n__all__ = ['ok']\n", CORE_PATH)


def test_ty001_silent_on_int_comparison_and_tolerance():
    good = "import math\nok = x == 3 or math.isclose(x, 0.5)\n__all__ = ['ok']\n"
    assert "TY001" not in codes(good, MI_PATH)


def test_ty001_scoped_to_numerical_packages():
    assert "TY001" not in codes("ok = x == 0.5\n__all__ = ['ok']\n", OTHER_PATH)


# --------------------------------------------------------------------- #
# TY002 unseeded randomness


def test_ty002_fires_on_unseeded_default_rng():
    src = "import numpy as np\nrng = np.random.default_rng()\n__all__ = ['rng']\n"
    assert "TY002" in codes(src, OTHER_PATH)


def test_ty002_fires_on_legacy_global_rng():
    src = "import numpy as np\nsample = np.random.normal(size=3)\n__all__ = ['sample']\n"
    assert "TY002" in codes(src, OTHER_PATH)


def test_ty002_silent_on_seeded_rng():
    src = (
        "import numpy as np\n"
        "rng = np.random.default_rng(42)\n"
        "rng2 = np.random.default_rng(seed=7)\n"
        "sample = rng.normal(size=3)\n"
        "__all__ = ['rng', 'rng2', 'sample']\n"
    )
    assert "TY002" not in codes(src, OTHER_PATH)


def test_ty002_exempts_tests():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    assert "TY002" not in codes(src, TEST_PATH)


def test_ty002_fires_on_none_seed():
    src = "import numpy as np\nrng = np.random.default_rng(None)\n__all__ = ['rng']\n"
    assert "TY002" in codes(src, OTHER_PATH)


# --------------------------------------------------------------------- #
# TY003 mutable defaults


def test_ty003_fires_on_list_literal_default():
    assert "TY003" in codes("def f(xs=[]):\n    return xs\n__all__ = ['f']\n", OTHER_PATH)


def test_ty003_fires_on_dict_call_default():
    src = "def f(*, opts=dict()):\n    return opts\n__all__ = ['f']\n"
    assert "TY003" in codes(src, OTHER_PATH)


def test_ty003_silent_on_none_default():
    src = "def f(xs=None):\n    return list(xs or [])\n__all__ = ['f']\n"
    assert "TY003" not in codes(src, OTHER_PATH)


# --------------------------------------------------------------------- #
# TY004 __all__ discipline


def test_ty004_fires_on_missing_dunder_all():
    assert "TY004" in codes("def f():\n    return 1\n", OTHER_PATH)


def test_ty004_fires_on_phantom_export():
    src = "def f():\n    return 1\n__all__ = ['f', 'ghost']\n"
    found = lint_source(src, OTHER_PATH, resolve_rules(select=["TY004"]))
    assert len(found) == 1
    assert "ghost" in found[0].message


def test_ty004_silent_on_honest_exports():
    src = (
        "from collections import deque\n"
        "CONST = 3\n"
        "def f():\n    return CONST\n"
        "class C:\n    pass\n"
        "__all__ = ['f', 'C', 'CONST', 'deque']\n"
    )
    assert "TY004" not in codes(src, OTHER_PATH)


def test_ty004_reads_an_annotated_dunder_all():
    # An empty list needs an annotation under mypy; it is still a declaration.
    src = "from typing import List\n__all__: List[str] = []\n"
    assert "TY004" not in codes(src, OTHER_PATH)
    found = lint_source(
        "from typing import List\n__all__: List[str] = ['ghost']\n",
        OTHER_PATH,
        resolve_rules(select=["TY004"]),
    )
    assert len(found) == 1 and "ghost" in found[0].message


def test_ty004_exempts_private_modules_and_non_repro_paths():
    assert "TY004" not in codes("def f():\n    return 1\n", Path("src/repro/core/_util.py"))
    assert "TY004" not in codes("def f():\n    return 1\n", Path("examples/demo.py"))


# --------------------------------------------------------------------- #
# TY005 silent excepts


def test_ty005_fires_on_bare_except():
    src = "try:\n    f()\nexcept:\n    handle()\n__all__ = []\n"
    assert "TY005" in codes(src, OTHER_PATH)


def test_ty005_fires_on_swallowed_exception():
    src = "try:\n    f()\nexcept Exception:\n    pass\n__all__ = []\n"
    assert "TY005" in codes(src, OTHER_PATH)


def test_ty005_silent_on_narrow_or_handled_except():
    src = (
        "try:\n    f()\n"
        "except ValueError:\n    pass\n"
        "except Exception as exc:\n    log(exc)\n"
        "__all__ = []\n"
    )
    assert "TY005" not in codes(src, OTHER_PATH)


# --------------------------------------------------------------------- #
# TY006 wall-clock timing


def test_ty006_fires_on_time_time():
    src = "import time\nstamp = time.time()\n__all__ = ['stamp']\n"
    assert "TY006" in codes(src, OTHER_PATH)


def test_ty006_silent_on_perf_counter_and_sanctioned_site():
    good = "import time\nstamp = time.perf_counter()\n__all__ = ['stamp']\n"
    assert "TY006" not in codes(good, OTHER_PATH)
    sanctioned = "import time\nstamp = time.time()\n__all__ = ['stamp']\n"
    assert "TY006" not in codes(sanctioned, Path("src/repro/core/tycos.py"))


# --------------------------------------------------------------------- #
# TY007 direct digamma


def test_ty007_fires_on_scipy_special_import():
    src = "from scipy.special import digamma\nval = digamma(3)\n__all__ = ['val']\n"
    assert "TY007" in codes(src, MI_PATH)


def test_ty007_fires_on_attribute_calls():
    src = (
        "import scipy.special\n"
        "val = scipy.special.digamma(3)\n"
        "__all__ = ['val']\n"
    )
    assert "TY007" in codes(src, OTHER_PATH)
    src2 = (
        "from scipy import special\n"
        "val = special.digamma(3)\n"
        "__all__ = ['val']\n"
    )
    assert "TY007" in codes(src2, OTHER_PATH)


def test_ty007_silent_on_sanctioned_module_tests_and_table_use():
    bad = "from scipy.special import digamma\nval = digamma(3)\n__all__ = ['val']\n"
    assert "TY007" not in codes(bad, Path("src/repro/mi/digamma.py"))
    assert "TY007" not in codes(bad, TEST_PATH)
    good = (
        "from repro.mi.digamma import shared_digamma_table\n"
        "val = shared_digamma_table().value(3)\n"
        "__all__ = ['val']\n"
    )
    assert "TY007" not in codes(good, MI_PATH)
    # Other scipy.special members stay allowed.
    other = "from scipy.special import gammaln\nval = gammaln(3.0)\n__all__ = ['val']\n"
    assert "TY007" not in codes(other, MI_PATH)


# --------------------------------------------------------------------- #
# TY008 PAA outside pyramid


def test_ty008_fires_on_reshape_mean_chain():
    src = (
        "import numpy as np\n"
        "def down(v, f):\n"
        "    return v[: v.size // f * f].reshape(-1, f).mean(axis=1)\n"
        "__all__ = ['down']\n"
    )
    assert "TY008" in codes(src, OTHER_PATH)


def test_ty008_fires_on_add_reduceat():
    src = (
        "import numpy as np\n"
        "def down(v, idx):\n"
        "    return np.add.reduceat(v, idx)\n"
        "__all__ = ['down']\n"
    )
    assert "TY008" in codes(src, OTHER_PATH)


def test_ty008_silent_in_pyramid_and_tests():
    bad = (
        "import numpy as np\n"
        "def down(v, f):\n"
        "    return v.reshape(-1, f).mean(axis=1)\n"
        "__all__ = ['down']\n"
    )
    assert "TY008" not in codes(bad, Path("src/repro/core/pyramid.py"))
    assert "TY008" not in codes(bad, TEST_PATH)


def test_ty008_allows_plain_reshape_and_plain_mean():
    src = (
        "import numpy as np\n"
        "def stats(v, f):\n"
        "    grid = v.reshape(-1, f)\n"
        "    return v.mean()\n"
        "__all__ = ['stats']\n"
    )
    assert "TY008" not in codes(src, OTHER_PATH)


# --------------------------------------------------------------------- #
# engine behavior


ALL_CODES = [
    "TY001", "TY002", "TY003", "TY004", "TY005", "TY006", "TY007", "TY008",
    "TY101", "TY102", "TY103", "TY111", "TY112", "TY113", "TY114", "TY116",
    "TY121",
]


def test_registry_contains_all_rules():
    assert sorted(registered_rules()) == ALL_CODES


def test_resolve_rules_select_and_ignore():
    assert [r.code for r in resolve_rules(select=["TY005", "TY001"])] == ["TY005", "TY001"]
    assert [r.code for r in resolve_rules(ignore=["TY004"])] == [
        code for code in ALL_CODES if code != "TY004"
    ]
    with pytest.raises(KeyError):
        resolve_rules(select=["TY042"])


def test_is_test_path():
    assert is_test_path(Path("tests/core/test_x.py"))
    assert is_test_path(Path("pkg/conftest.py"))
    assert not is_test_path(Path("src/repro/core/tycos.py"))


def test_violations_sorted_by_location():
    src = (
        "def f(xs=[]):\n    return xs\n"
        "def g(ys=[]):\n    return ys\n"
        "__all__ = ['f', 'g']\n"
    )
    found = lint_source(src, OTHER_PATH, resolve_rules(select=["TY003"]))
    assert [v.line for v in found] == sorted(v.line for v in found)
    assert len(found) == 2


def test_lint_paths_reports_parse_errors(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    report = lint_paths([tmp_path], resolve_rules())
    assert report.parse_errors and not report.clean


# --------------------------------------------------------------------- #
# CLI


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "core" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("flag = x == 0.5\n__all__ = ['flag']\n")

    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "TY001" in out and "mod.py" in out

    # Ignoring the only firing rule turns the run clean.
    assert main(["--ignore", "TY001", str(tmp_path)]) == 0

    # Usage errors: unknown rule, missing path, no paths.
    assert main(["--select", "TY042", str(tmp_path)]) == 2
    assert main([str(tmp_path / "nope")]) == 2
    assert main([]) == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ALL_CODES:
        assert code in out


def test_repo_is_lint_clean():
    """Both passes over src+tests are clean modulo the checked-in baseline."""
    from tools.tycoslint.baseline import DEFAULT_BASELINE, apply_baseline, load_baseline

    root = Path(__file__).resolve().parents[2]
    report = lint_paths([root / "src", root / "tests"], resolve_rules())
    kept, _, stale = apply_baseline(report.violations, load_baseline(DEFAULT_BASELINE))
    assert not kept, "\n".join(v.render() for v in kept)
    assert not report.parse_errors, report.parse_errors
    assert not stale, f"stale baseline entries: {stale}"
