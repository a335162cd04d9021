"""A pytest plugin that runs the tests on ``kernels.c`` built with
AddressSanitizer and UndefinedBehaviorSanitizer.

Load it with ``-p tests.sanitized_kernels``.  At configure time it builds
``src/repro/core/kernels.c`` with ``gcc -fsanitize=address,undefined
-fno-sanitize-recover=all`` into a temporary directory, opens it through
the package's own cffi declaration and swaps it in for
``repro.core.kernels``' library, so every compiled call of the session
runs checked: a read or write one cell past a buffer, or a signed
overflow, aborts the run.  The sanitizer runtimes must be loaded first,
so run pytest under ``LD_PRELOAD`` of gcc's ``libasan`` and ``libubsan``
(``gcc -print-file-name=libasan.so``), with
``ASAN_OPTIONS=detect_leaks=0`` (the interpreter's own allocations are
not this library's leaks) and ``--capture=sys`` (pytest's default
capture holds file descriptor 2, so an aborting test's report would be
lost)::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) \\
                $(gcc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src \\
    python -m pytest --capture=sys -p tests.sanitized_kernels \\
        tests/test_pull_step.py

Nothing in the package knows about this build: the swap is the plugin's.
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
from pathlib import Path

FLAGS = ("-O1", "-g", "-shared", "-fPIC", "-pthread", "-Wl,-z,nodelete",
         "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all")


def pytest_configure(config):
    from cffi import FFI

    from repro.core import kernels

    build = Path(tempfile.mkdtemp(prefix="sanitized-kernels-"))
    config.add_cleanup(lambda: shutil.rmtree(build, ignore_errors=True))
    lib_path = build / "kernels-sanitized.so"
    subprocess.run(["gcc", *FLAGS, "-o", str(lib_path),
                    str(kernels._SOURCE)], check=True)
    ffi = FFI()
    ffi.cdef(kernels._CDEF)
    kernels._FFI, kernels._LIB = ffi, ffi.dlopen(str(lib_path))


def pytest_report_header(config):
    return "kernels.c: the AddressSanitizer / UBSan build"
