"""Traced ovalkit CLI process for the cli-verbs workload.

Usage: python cli_child.py <job id> <ovalkit verb> [args...]

Runs `ovalkit.cli.main` under the span recorder and reports the spans as
one JSON line on stderr, prefixed with the worker's trace mark.
"""

import json
import sys

import tracer

if __name__ == "__main__":
    import ovalkit.cli

    recorder = tracer.Recorder().install()
    recorder.begin_job(int(sys.argv[1]))
    try:
        code = ovalkit.cli.main(sys.argv[2:])
    finally:
        recorder.end_job()
        recorder.uninstall()
        sys.stdout.flush()
        print(tracer.TRACE_MARK + json.dumps(recorder.dump()), file=sys.stderr)
    sys.exit(code)
