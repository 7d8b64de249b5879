"""Build script: compiles the optional fast kernel extension.

The package works without the extension (pure-Python kernels are selected at
import time); the build therefore tolerates a missing Cython toolchain by
compiling the committed generated C file instead, and a missing C compiler
by skipping the extension.
"""

from setuptools import Extension, setup

# contraction off: the compiled lane must match the pure lane bit-for-bit
FLAGS = ["-O2", "-ffp-contract=off"]

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [
        Extension(
            "prony._kernels._fast",
            sources=["src/prony/_kernels/_fast.c"],
            extra_compile_args=FLAGS,
            optional=True,
        )
    ]
else:
    ext_modules = cythonize(
        [
            Extension(
                "prony._kernels._fast",
                sources=["src/prony/_kernels/_fast.pyx"],
                extra_compile_args=FLAGS,
            )
        ],
        language_level=3,
    )

setup(ext_modules=ext_modules)
