"""The README's library quick start runs and gives what its comments say."""

import math
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_quick_start_runs_as_commented():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    ns = {}
    exec(block, ns)
    assert abs(ns["w"][0, 0] - 0.41421356j) < 1e-8
    assert ns["ws"].shape == (2, 1, 1)
    cls = ns["scan"].classification[0]
    assert (cls["label"], cls["rank"]) == ("ac", 1)
    assert abs(cls["density"][0, 0] - 1 / math.pi) < 1e-2
