"""Bootstrap for a traced ``spin7`` command in a fresh process.

Usage: python3 bench/child.py OUT_JSON ARG...

Installs the tracer, runs ``spin7.cli.main`` with ARG... exactly as
``python -m spin7 ARG...`` would, and writes the trace aggregates to
OUT_JSON when the process exits, also when it exits via ``SystemExit``.
"""

import sys

import tracing


def main() -> None:
    out_path, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from spin7.cli import main as cli_main

    cmd = tracer.wrap(f"cli.{args[0] if args else 'none'}", cli_main.main, tracing.SPAN)
    try:
        cmd(args=args, prog_name="spin7")
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    main()
