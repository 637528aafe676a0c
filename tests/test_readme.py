"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The code of README's library example."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(capsys):
    code = library_example()
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == code.count("print(")
    # frame_residuals gives the Reeb-frame conditions in report order
    assert out[1].startswith("{'reeb_brackets': ")
    # theorem_check gives a row over the stack's four points per key
    assert out[4].startswith("{'n1_equals_qtilde_phi': array([")
    # an induced pack carries its submanifold: its frame of one point is
    # built as any pack's is, and gives every axiom
    assert out[6].startswith("{'f_skew': ") and "'tangent_split': " in out[6]
