"""The public surface: every re-exported name, and the README library example."""

import re
from fractions import Fraction
from pathlib import Path

import bellpoly

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_imports():
    assert len(set(bellpoly.__all__)) == len(bellpoly.__all__)
    namespace = {}
    exec("from bellpoly import *", namespace)
    for name in bellpoly.__all__:
        assert namespace[name] is getattr(bellpoly, name)


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example():
    namespace = {}
    exec(_library_example(), namespace)
    vessels = namespace["vessels"]
    distinguished = namespace["distinguished"]
    chsh_statistic = namespace["chsh_statistic"]
    clauser_horne_statistic = namespace["clauser_horne_statistic"]
    membership = namespace["membership"]

    assert chsh_statistic(vessels.expectations) == 4
    assert clauser_horne_statistic(vessels.vector) == 1  # outside [-1, 0]
    outside = membership(vessels.vector)
    assert not outside.inside
    assert outside.violated_facet.name == "CH2" and outside.violated_facet.value == 1

    assert distinguished.n == 8 and len(distinguished.pairs) == 4
    indices = [i for pair in distinguished.pairs for i in pair]
    assert len(set(indices)) == 8  # the four pairs are disjoint
    inside = membership(distinguished)
    assert inside.inside
    assert all(isinstance(w, Fraction) for w in inside.certificate)
    assert inside.reconstruction_error(distinguished) == 0
