"""The parent-vs-change row comparator in ``tools/compare_rows.py``."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "compare_rows.py")
SRC = os.path.join(ROOT, "src")


def _compare(parent, change, configs):
    cmd = [sys.executable, TOOL, parent, change, "--configs", str(configs)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def test_tree_matches_itself():
    out = _compare(SRC, SRC, 20)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.startswith("20 configs identical")


def test_changed_rows_fail(tmp_path):
    # Negative control: a copy whose sub-stream keys differ changes every
    # random draw, so the comparison must report a difference and exit 1.
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    seeding = changed / "netdac" / "seeding.py"
    text = seeding.read_text()
    assert "digest[:8]" in text
    seeding.write_text(text.replace("digest[:8]", "digest[1:9]"))
    out = _compare(SRC, str(changed), 5)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "differs" in out.stdout
