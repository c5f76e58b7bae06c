"""Set-up probe: a fresh interpreter imports what one workload calls and warms it up.

    python3 -X importtime bench/probe.py cli <lpentropy.cli arguments>
    python3 -X importtime bench/probe.py <workload> <module> [<module> ...]

The first form is what `python -m lpentropy.cli` does: import the CLI and
run one subcommand.  The second imports the listed library modules, then
the benchmark's workload code, which imports no library module itself,
and runs the workload's warm-up.  Nothing else is imported, so the probe
costs what a user of the workload pays.

run.py starts it several times per run and takes the median wall time as
`setup_s`.  It prints one JSON object with the time of each stage, and
writes MARKER to stderr when the import stage ends, so that the
`-X importtime` lines of that stage can be told apart.
"""

import contextlib
import importlib
import json
import os
import sys
import time

MARKER = "# probe: import stage done"


def main(argv: list) -> int:
    name, rest = argv[0], argv[1:]
    t0 = time.perf_counter()
    if name == "cli":
        from lpentropy import cli
    else:
        for module in rest:
            importlib.import_module(module)
    t1 = time.perf_counter()
    print(MARKER, file=sys.stderr, flush=True)
    if name == "cli":
        t2 = t1
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(rest)
        if code != 0:
            return code
        t3 = time.perf_counter()
    else:
        import workloads  # the benchmark's own code; its import is not set-up

        t2 = time.perf_counter()
        workloads.WORKLOADS[name].warmup()
        t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "harness_s": t2 - t1, "warmup_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
