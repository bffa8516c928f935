"""Build script: the optional compiled GF(2) kernel (see src/xorsatlab/_kernel/__init__.py).

Without a C compiler or the Python headers, setuptools skips the extension
(``optional=True``) and the pure-Python kernel, with the same contract, is used.
"""

from setuptools import Extension, setup

kernel = Extension("xorsatlab._kernel._ext", ["src/xorsatlab/_kernel/_ext.c"], extra_compile_args=["-O3"], optional=True)
setup(ext_modules=[kernel])
