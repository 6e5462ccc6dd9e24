"""A traced site daemon: ``python perfbench/site_launcher.py --trace-out F --config C``.

Installs the benchmark's span wrappers (see :mod:`tracing`) and then
runs the library's own daemon entry point, ``repro.site.main``, on the
same arguments.  When the daemon stops (SIGTERM or a ``shutdown``
control op) the spans, together with the daemon's transport and
marshal counters, are written to the ``--trace-out`` file as JSON.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from tracing import Tracer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    args, site_argv = parser.parse_known_args(argv)

    import repro.site

    tracer = Tracer()
    tracer.install()
    runtimes: List[Any] = []
    build_runtime = repro.site.build_runtime

    def capture_runtime(config: Any) -> Any:
        runtime = build_runtime(config)
        runtimes.append(runtime)
        return runtime

    repro.site.build_runtime = capture_runtime
    try:
        code = repro.site.main(site_argv)
    finally:
        tracer.uninstall()
        extra: Dict[str, Any] = {}
        if runtimes:
            stats = runtimes[0].transport.stats
            extra = {
                "marshal": stats.marshal.snapshot(),
                "transport": {
                    "requests_sent": stats.requests_sent,
                    "replies_sent": stats.replies_sent,
                    "requests_dropped": stats.requests_dropped,
                    "bytes_sent": stats.bytes_sent,
                },
            }
        tracer.dump(args.trace_out, extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
