import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 22 physical lines; the code lines are the 8 marked "# code" and the two
# lines of the string assigned to TEXT
MODULE = '''"""A module docstring
over two lines."""
import math  # code

# a comment line

TEXT = """one
two"""


def f(x):  # code
    """A function docstring."""
    y = (x +  # code
         1)  # code
    "a string statement" "in two parts"
    return math.sqrt(y)  # code


class C:  # code
    "a class docstring"
    value = f(  # code
        "an argument")  # code
'''


def test_code_lines_skip_comments_blank_lines_and_docstrings():
    assert MODULE.count("\n") == 22
    assert code_lines.code_lines(MODULE) == 10


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    package = tmp_path / "divalg"
    package.mkdir()
    (package / "__init__.py").write_text('"""The package."""\n\nVERSION = "1"\n')
    (package / "mod.py").write_text(MODULE)
    assert code_lines.main(["--src", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line.split() for line in out.splitlines()]
    assert rows == [["module", "lines", "code"], ["__init__.py", "3", "1"],
                    ["mod.py", "22", "10"], ["total", "25", "11"]]


def test_main_without_a_package_is_an_error(tmp_path, capsys):
    assert code_lines.main(["--src", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
