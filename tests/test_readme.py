"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The code of README's library example."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


# A printed dict whose every value is an array of one number.
ROWS_OF_ONE = r"\{'\w+': array\(\[[^],]+\]\)(, '\w+': array\(\[[^],]+\]\))*\}"


def test_library_use_example_runs(capsys):
    code = library_example()
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == code.count("print(")
    # the example names public objects only
    assert not re.search(r"^from .* import .*\b_", code, re.M)
    # a point is a stack of one: each check of a PackFrame gives a row of one
    # per key, and frame_residuals the Reeb-frame conditions in report order
    assert re.fullmatch(ROWS_OF_ONE, out[0]) and re.fullmatch(ROWS_OF_ONE, out[1])
    assert out[1].startswith("{'reeb_brackets': array([")
    # theorem_check gives a row over the stack's four points per key
    assert out[4].startswith("{'n1_equals_qtilde_phi': array([")
    # an induced pack carries its submanifold: the stack of one of its
    # points is built as any pack's is, and gives every axiom
    assert re.fullmatch(ROWS_OF_ONE, out[6])
    assert out[6].startswith("{'f_skew': array([") and "'tangent_split': " in out[6]
