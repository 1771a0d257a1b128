"""Child process for the ``cli`` workload's set-up and traced runs.

    python3 cli_child.py setup FILE...            import the CLI, parse each file
    python3 cli_child.py trace REPORT -- ARGV...  run ``coxdescent ARGV`` traced

``trace`` writes ``{"import_s": ..., "summary": ...}`` to REPORT and exits
with the CLI's own exit code, its stdout and stderr untouched.  Both modes
expect ``PYTHONPATH`` to hold the repository's ``src`` and root.
"""

import json
import sys
import time


def main(argv):
    t0 = time.perf_counter()
    import coxdescent.cli
    import_s = time.perf_counter() - t0
    if argv[0] == "setup":
        from coxdescent.problemfile import load_problem
        for path in argv[1:]:
            load_problem(path)
        return 0
    if argv[0] == "trace" and argv[2] == "--":
        from perfbench.tracer import Tracer
        with Tracer() as tracer:
            rc = coxdescent.cli.main(argv[3:])
        with open(argv[1], "w", encoding="ascii") as fh:
            json.dump({"import_s": import_s, "summary": tracer.summary()}, fh)
        return rc
    raise SystemExit("usage: cli_child.py setup FILE... | trace REPORT -- ARGV...")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
