"""Smoke test of the parity tool (``python -m tools.parity``).

The tool is the bit-identity gate for search and scan refactors, so its
readings must repeat exactly from run to run on unchanged code.
"""

import pytest

from tools.parity import main, parity_lines


def test_one_gallery_input_repeats_exactly():
    first = list(parity_lines("pair_gallery", 1, instances=1))
    second = list(parity_lines("pair_gallery", 1, instances=1))
    assert first == second
    readings = [line.split()[3] for line in first]
    assert "window" in readings
    assert "stats" in readings
    # Clock readings are left out; every other SearchStats field is in.
    assert not [line for line in first if "seconds" in line]
    assert any(" stats windows_evaluated=" in line for line in first)


def test_rejects_a_non_positive_instance_count(capsys):
    with pytest.raises(SystemExit) as exit:
        main(["--seeds", "1", "--instances", "0"])
    assert exit.value.code == 2
    assert "--instances" in capsys.readouterr().err
