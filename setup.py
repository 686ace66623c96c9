import compileall
import py_compile

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

try:
    from Cython.Build import cythonize
except ImportError:
    # No Cython: ship pure Python only; qadic.oracle falls back to _scan_py.
    ext_modules = []
else:
    ext_modules = cythonize(
        [
            Extension(
                "qadic._fastscan",
                ["src/qadic/_fastscan.pyx"],
                extra_compile_args=["-O3"],
            )
        ],
        compiler_directives={"language_level": "3"},
    )


class BuildExtInPlace(build_ext):
    """build_ext that, with --inplace, also byte-compiles src/qadic, as an
    installed package is byte-compiled; a checkout imported from src/ then
    need not compile its modules on every import when the interpreter
    writes no bytecode itself.  The pycs are checked against the hash of
    their source, so an edited module is never served stale bytecode."""

    def run(self):
        super().run()
        if self.inplace:
            mode = py_compile.PycInvalidationMode.CHECKED_HASH
            if not compileall.compile_dir("src/qadic", quiet=1, invalidation_mode=mode):
                raise SystemExit("byte-compiling src/qadic failed")


setup(ext_modules=ext_modules, cmdclass={"build_ext": BuildExtInPlace})
