"""Fresh-interpreter probe: time `import dipnet` plus parsing the given
scenarios, then (unless OUT_DIR is "-") run them through the CLI, and report
this process's peak RSS.

    python3 fresh.py SRC_DIR OUT_DIR COMMAND:SCENARIO_FILE ...

Prints one JSON object: setup_s, the exit codes and ru_maxrss in KiB.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, out, *jobs = argv
    commands, paths = zip(*(job.split(":", 1) for job in jobs))
    texts = [Path(p).read_text() for p in paths]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import dipnet.cli
    for text in texts:
        dipnet.cli.parse_scenario(text)
    setup_s = time.perf_counter() - t0
    codes = [] if out == "-" else [dipnet.cli.main([cmd, path, "--output-dir", out])
                                   for cmd, path in zip(commands, paths)]
    print(json.dumps({"setup_s": setup_s, "codes": codes,
                      "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
