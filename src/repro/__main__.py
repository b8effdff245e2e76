"""Entry point for ``python -m repro``.

The ``lint`` verb is dispatched before :mod:`repro.cli` is imported:
the static-analysis engine is stdlib-only, and routing it early keeps
``python -m repro lint`` runnable on interpreters without numpy/scipy
(the CI lint job installs no numerical dependencies at all).

Every other verb goes through :mod:`repro.cli`, whose module scope is kept
to what argument parsing and ``serve`` need: each ``repro serve`` process
(direct server, fleet router, every replica) starts here, so whatever
``repro.cli`` imports up front is paid on every cold start.
"""

import sys


def _dispatch(argv):
    if len(argv) > 1 and argv[1] == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[2:])
    from repro.cli import main

    return main(argv[1:])


if __name__ == "__main__":
    sys.exit(_dispatch(sys.argv))
