"""Fresh-interpreter probe: time `import qpisde.cli`, then optionally run one
benchmark operation and report the process's peak resident memory.

    python3 bench/probe.py SRC_DIR ARGVS_JSON

ARGVS_JSON is a JSON list of CLI argument lists (empty for an import-only
probe). Prints one JSON object: import_s and the calibration time cal_s
measured right after it, and, when calls ran, op_s, the exit codes and
maxrss_kb.
"""

import json
import resource
import sys
import time

src, argvs = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
start = time.perf_counter()
import qpisde.cli  # noqa: E402

import_s = time.perf_counter() - start

from hostspeed import calibrate  # noqa: E402  (this file's directory is sys.path[0])

result = {"import_s": import_s, "cal_s": calibrate()}
if argvs:
    start = time.perf_counter()
    result["rc"] = [qpisde.cli.main(argv) for argv in argvs]
    result["op_s"] = time.perf_counter() - start
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps(result))
