"""Set-up probe, run in a fresh process: import burstkin, parse the
workload's configs and build their models, then print the elapsed seconds.

    python3 setup_probe.py <src-dir> <configs.json>

``configs.json`` holds a list of [config text, output dir] pairs.  The
clock starts before burstkin is imported, so interpreter start-up is not
counted and the numpy import that burstkin pulls in is.
"""

import json
import sys
import time

_STARTED = time.perf_counter()


def main() -> None:
    src, path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from burstkin.cli import parse_config
    with open(path, encoding="utf-8") as fh:
        items = json.load(fh)
    for text, out_dir in items:
        parse_config(text, {("output", "dir"): out_dir}).build_model()
    print(repr(time.perf_counter() - _STARTED))


if __name__ == "__main__":
    main()
