"""The code-line counter ``tools/code_lines.py``, run on a throwaway module."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

_MODULE = '''"""A module docstring
over two lines."""

# a comment
x = (1 +
     2)


def f():
    """A function docstring."""
    return x  # a trailing comment
'''


def test_counts_code_lines_only(tmp_path):
    """No docstring, comment or blank line counts; a statement over two lines counts two."""
    module = tmp_path / "probe.py"
    module.write_text(_MODULE, encoding="utf-8")
    result = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], cwd=tmp_path,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0 and result.stderr == ""
    assert [line.split() for line in result.stdout.splitlines()] == [
        ["4", str(module)], ["4", "total"]]
