"""Entry point: ``python3 benchmarks/e2e/__main__.py`` or
``python3 -m benchmarks.e2e`` from the root of a checkout."""

import os
import sys

if __name__ == "__main__":
    if not __package__:
        sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))))
    from benchmarks.e2e import SRC

    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("e2e benchmark: no simulator sources under {}".format(SRC))
    from benchmarks.e2e.cli import main

    sys.exit(main())
