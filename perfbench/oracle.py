"""Write the default-configuration report, minus ``wall_ms``, of the checked-out code.

Usage (from the repository root):  python3 perfbench/oracle.py OUT.json

Run it on a change and on its parent and compare the two files: the
report of ``verify all`` is meant to stay byte-identical apart from
``wall_ms`` unless a change says otherwise.  Nothing is stored, so no
old copy can turn into a gate.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from diracsplit import cli

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = str(Path(tmp) / "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["all", "--json", path])
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    del report["wall_ms"]
    Path(sys.argv[1]).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"verify all exited {rc}; wrote {len(report['checks'])} checks to {sys.argv[1]}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
