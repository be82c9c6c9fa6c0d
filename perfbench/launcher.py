"""``repro serve`` with the benchmark's tracer installed (traced runs only).

Takes the same arguments as ``python -m repro serve``; needs
``PERFBENCH_TRACE_DIR`` set to the directory spans are written to.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import tracehook
    from repro.__main__ import main

    tracehook.install_server()
    try:
        code = main(["serve", *sys.argv[1:]])
    finally:
        tracehook.finish()
    sys.exit(code)
