"""Set-up probe: time for a fresh process to import epinetopt and build inputs.

    PYTHONPATH=src python3 bench/probe_setup.py build|distribution CONFIG [SECTION.KEY=VALUE ...]

``build`` runs ``ExperimentConfig.from_file(...).build()``; ``distribution``
runs ``build_distribution()`` (what ``group-error`` needs). Prints the
seconds from before the import to after the build.
"""

import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    from epinetopt.cli import ExperimentConfig

    what, path, *overrides = argv
    config = ExperimentConfig.from_file(path, overrides)
    if what == "distribution":
        config.build_distribution()
    else:
        config.build()
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
