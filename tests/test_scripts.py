"""The scripts under scripts/: usage, argument errors and their output,
each run in a fresh process."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ["poset_gallery.py", "stratum_dimensions.py", "weil_census.py"]


def run_script(name, *argv, cwd=None):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=60,
    )


@pytest.mark.parametrize("name", SCRIPTS)
def test_help_exits_0(name):
    proc = run_script(name, "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: %s [-h]" % name) and proc.stderr == ""


@pytest.mark.parametrize("name", SCRIPTS)
def test_non_integer_argument_is_2(name, tmp_path):
    proc = run_script(name, "six", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: %s" % name) and "invalid int value: 'six'" in proc.stderr
    assert list(tmp_path.iterdir()) == []


# sha256 of each script's output at its defaults, generated with the
# sys.argv readers that argparse replaced; the gallery hashes every file's
# name and bytes in name order
DEFAULT_OUTPUT = {
    "stratum_dimensions.py": "be0c0b2486bc44733069ef5d4829310c2df229fb2464bd5499dba12bcce3dd09",
    "weil_census.py": "102963fdc83dca03c7bd0d45fed7ea9a17b11de2bc42cc84f10dd0a1b97525e3",
    "poset-gallery": "762c4ddafa239b3b2d674b5c9d4a0c0337070d5727bfc5765e8b29017953d1fa",
}


@pytest.mark.parametrize("name, argv", [("stratum_dimensions.py", "4"), ("weil_census.py", "200")])
def test_defaults_unchanged(name, argv):
    default, explicit = run_script(name), run_script(name, argv)
    assert default.returncode == 0 and default.stdout == explicit.stdout
    assert hashlib.sha256(default.stdout.encode()).hexdigest() == DEFAULT_OUTPUT[name]


def test_poset_gallery_defaults_unchanged(tmp_path):
    proc = run_script("poset_gallery.py", cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, "wrote DOT files to poset-gallery\n")
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "poset-gallery").iterdir()):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == DEFAULT_OUTPUT["poset-gallery"]
    proc = run_script("poset_gallery.py", "2", str(tmp_path / "small"))
    assert proc.returncode == 0
    assert sorted(p.name for p in (tmp_path / "small").iterdir()) == [
        "np_1_0.dot", "np_1_1.dot", "np_2_0.dot", "np_2_1.dot", "np_2_1_sym.dot", "np_2_2.dot"
    ]
