"""Cold start of one qmix request in a fresh interpreter.

Usage: python3 cold.py SRC_DIR ARG...

Times ``import qmix.cli`` and the first ``qmix.cli.main([ARG...])`` call
and prints ``import_s first_request_s exit_code`` on one line.  Nothing
beyond ``sys`` and ``time`` is imported before the clock starts.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qmix.cli  # noqa: E402

imported = time.perf_counter()
code = qmix.cli.main(sys.argv[2:])
done = time.perf_counter()
print(f"{imported - start!r} {done - imported!r} {code}")
