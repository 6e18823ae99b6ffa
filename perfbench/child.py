"""Fresh-interpreter child of perfbench/run.py.

    python3 perfbench/child.py setup WORKLOAD OUT_FILE
        Import powspec and make the workload's first call; print one JSON
        line with the seconds that took and the report text it produced.
    python3 perfbench/child.py cli SPANS_FILE|- POWSPEC_ARGS...
        Run verify_cli.main(POWSPEC_ARGS), the function behind the
        ``powspec`` console script, and exit with its code.  With a
        SPANS_FILE the public functions are traced, and the span totals,
        with the import time and the main() time as two more spans, are
        written there as JSON.

Only the standard library is imported before the timed import of powspec.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The cli-cold op: the smallest full pair, through the command line.
CLI_ARGS = ("verify", "--k", "2", "--p", "3")


def first_call(workload: str, verify_cli, out_file: str | None) -> str:
    """The smallest op of a workload; returns the report text it yields."""
    if workload == "verify-ladder":
        return verify_cli.run_verification(2, 3).to_json()
    if workload == "structure-sweep":
        return verify_cli.sweep([2], [3], kinds=())[0].to_json()
    with contextlib.redirect_stdout(io.StringIO()):
        code = verify_cli.main([*CLI_ARGS, "--out", out_file])
    if code != 0:
        raise RuntimeError(f"powspec verify exited {code}")
    with open(out_file) as fh:
        return fh.read()


def setup(workload: str, out_file: str) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from powspec import verify_cli

    text = first_call(workload, verify_cli, out_file)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "report": text}))
    return 0


def cli(spans_file: str, argv: list[str]) -> int:
    if spans_file == "-":
        sys.path.insert(0, SRC)
        from powspec import verify_cli

        return verify_cli.main(argv)

    from spans import Tracer

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from powspec import verify_cli

    import_s = time.perf_counter() - t0
    with Tracer() as tracer:
        t1 = time.perf_counter()
        code = verify_cli.main(argv)
        main_s = time.perf_counter() - t1
    tracer.seconds["verify_cli.cli.import"] += import_s
    tracer.seconds["verify_cli.cli.main"] += main_s
    with open(spans_file, "w") as fh:
        json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    mode, arg, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup(arg, rest[0]))
    sys.exit(cli(arg, rest))
