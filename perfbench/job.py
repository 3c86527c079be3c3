"""Run one ``dualshare`` CLI invocation as the ``dualshare`` console script would.

Usage: ``python3 job.py ARGS...`` with ``PERFBENCH_READY_FD`` naming an
inherited pipe.  Two lines go to that pipe: the CLOCK_MONOTONIC reading
once ``dualshare.cli`` is imported and ready to dispatch (the parent times
set-up from its own spawn timestamp), and at exit the process's peak
resident set in KiB.  The peak is read here because the parent's rusage for
an exec'd child also counts the parent's own high-water mark.  With
``PERFBENCH_TRACE=PATH`` the span recorder is installed after the ready
point and its totals are written to PATH when the command exits.
"""

import os
import sys
import time


def main() -> None:
    from dualshare import cli

    ready = time.monotonic()
    fd = int(os.environ["PERFBENCH_READY_FD"])
    os.write(fd, f"{ready!r}\n".encode())
    trace_path = os.environ.get("PERFBENCH_TRACE")
    recorder = None
    if trace_path:
        import tracer

        recorder = tracer.install()
    sys.argv = ["dualshare", *sys.argv[1:]]
    try:
        cli.main()
    finally:
        if recorder is not None:
            recorder.dump(trace_path)
        os.write(fd, f"{peak_rss_kib()}\n".encode())


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    main()
