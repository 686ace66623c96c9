"""The in-place build: it byte-compiles the package, and the bytecode it
leaves never hides an edit to a module's source."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Prints the qadic modules that an import compiles from source, and the
# value of the name that the test adds to errors.py.
PROBE = """
import json
import pathlib
from importlib.machinery import SourceFileLoader

owner = next(c for c in SourceFileLoader.__mro__ if "source_to_code" in vars(c))
compiled = []
original = owner.source_to_code


def spy(self, data, path, *args, **kwargs):
    if pathlib.Path(path).parent.name == "qadic":
        compiled.append(pathlib.Path(path).name)
    return original(self, data, path, *args, **kwargs)


owner.source_to_code = spy
import qadic
import qadic.cli
import qadic.errors
import qadic.oracle

print(json.dumps([sorted(compiled), qadic.errors.EDITED]))
"""


def _probe(checkout: pathlib.Path) -> list:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_in_place_build_byte_compiles_the_package(tmp_path):
    pytest.importorskip("setuptools", reason="setuptools is missing, so setup.py cannot build")
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    errors = tmp_path / "src" / "qadic" / "errors.py"
    errors.write_text(errors.read_text() + '\nEDITED = "at build"\n')
    # without bytecode every module is compiled from source, and the spy sees it
    compiled, edited = _probe(tmp_path)
    assert "cli.py" in compiled and edited == "at build"

    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "--build-temp", str(tmp_path / "temp")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert build.returncode == 0, build.stdout + build.stderr
    assert _probe(tmp_path) == [[], "at build"]

    # an edit that keeps the file's size and mtime, which only a hash check sees
    stat = errors.stat()
    errors.write_text(errors.read_text().replace("at build", "at edit!"))
    os.utime(errors, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert _probe(tmp_path) == [["errors.py"], "at edit!"]
