"""Run one drazinkit CLI invocation with the benchmark's spans installed.

    python3 bench/cli_traced.py SPANS_PREFIX OP_ID SUBCOMMAND [ARGS...]

Imports drazinkit, wraps its layers as the in-process traced run does,
then calls drazinkit.cli.main with the remaining arguments. Standard output
is the CLI's own. On exit it writes SPANS_PREFIX.json (per-name calls and
times) and SPANS_PREFIX.tsv.gz (every span).
"""

import json
import sys

from tracer import Tracer
from workloads import fresh_import


def main() -> int:
    prefix, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op_id = op_id
    mods = fresh_import()
    tracer.install(mods)
    try:
        return mods["cli"].main(argv)
    finally:
        sys.stdout.flush()
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
        tracer.dump(prefix + ".tsv.gz")


if __name__ == "__main__":
    sys.exit(main())
