"""Set-up probe: the fixed cost every gridforge command pays.

    PYTHONPATH=src python3 bench/probe.py [AMBIENT]

Imports gridforge.cli (numpy included) and, for a coset ambient such as
{4,3,5}, builds its reflection system, then prints the two times as JSON.
"""

import json
import sys
import time

start = time.perf_counter()
import gridforge.cli  # noqa: E402
imported = time.perf_counter()
if len(sys.argv) > 1:
    gridforge.cli.build_system(sys.argv[1])
print(json.dumps({"import_s": imported - start,
                  "build_system_s": time.perf_counter() - imported}))
