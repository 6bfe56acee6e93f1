"""Traced stand-in for ``python -m infochain.cli``: runs the same ``main``
with spans around ``import infochain.cli`` and every timed call, then prints
``{"t0": <first statement>, "spans": [...]}`` as the last line of standard
error.  Usage: ``python perfbench/cli_child.py <cli arguments>``.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    with tracer.span("cli.import"):
        from infochain import cli
    with spans.patched(tracer):
        code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    import json

    print(json.dumps({"t0": T0, "spans": tracer.spans}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
