"""Run one `ctp` command in a fresh interpreter, as the `ctp` console script does.

Usage: python3 launch.py READY_FILE TRACE_FILE|- CTP_ARGS...

Writes ``time.monotonic()`` to READY_FILE as soon as ``ctpdse.cli`` is
imported, so the caller can time interpreter start-up plus import. With a
TRACE_FILE, span wrappers are installed before the command runs and the
spans are dumped there when it returns.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctpdse import cli  # noqa: E402

READY = time.monotonic()


def main(argv):
    ready_file, trace_file, *ctp_args = argv
    Path(ready_file).write_text(repr(READY), encoding="utf-8")
    if trace_file == "-":
        return cli.main(ctp_args)
    import spans  # the launcher's directory is first on sys.path

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return cli.main(ctp_args)
    finally:
        spans.dump(recorder, trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
