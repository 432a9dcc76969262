"""Golden digests of the CLI on every fixture.

Each case records the exit code and the sha256 of stdout, stderr and, for
`render`, the SVG file, at the default window.  The digests live in
`cli_golden.json` beside this file; a change that alters any byte of these
outputs fails here.  To record them again after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import FIXTURES
from hornkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
COMMANDS = {
    "analyze": ["analyze"],
    "solve": ["solve"],
    "classify": ["classify"],
    "rank": ["rank"],
    "series": ["series"],
    "series-table": ["series"],
    "render-polygon": ["render", "--what", "polygon"],
    "render-supports": ["render", "--what", "supports"],
}
# The table of "series-table" is branch 0 of the first nondegenerate row pair
# at the default window; rows 0 and 1 are parallel on these two fixtures.
TABLE_PAIRS = {"triangle_sides": "0,3", "zonotope": "0,2"}
CASES = [f"{f.stem} {cmd}" for f in sorted(FIXTURES.glob("*.json")) for cmd in COMMANDS]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(case: str, workdir: Path) -> dict:
    fixture, cmd = case.split()
    args = [COMMANDS[cmd][0], str(FIXTURES / f"{fixture}.json"), *COMMANDS[cmd][1:]]
    svg = workdir / "out.svg"
    if cmd.startswith("render"):
        args += ["--out", str(svg)]
    if cmd == "series-table":
        args += ["--submatrix", TABLE_PAIRS.get(fixture, "0,1")]
    svg.unlink(missing_ok=True)
    r = CliRunner().invoke(main, args)
    out = {"exit_code": r.exit_code, "stdout": _sha(r.stdout_bytes),
           "stderr": _sha(r.stderr_bytes)}
    if cmd.startswith("render"):
        out["svg"] = _sha(svg.read_bytes()) if svg.exists() else None
    return out


@pytest.mark.parametrize("case", CASES)
def test_cli_golden(case, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert digest(case, tmp_path) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {case: digest(case, Path(tmp)) for case in CASES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
