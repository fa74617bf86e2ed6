"""One fresh process's set-up, timed from outside: import the
program, load the grammar tables from the warm on-disk blob, build the
workload's Session or checker, then print ``ready``.

Usage: python3 setup_child.py kernel-parse|fuzz-diff
"""

import sys


def main(workload: str) -> None:
    import repro
    from repro.cgrammar import c_tables
    tables = c_tables()
    if workload == "fuzz-diff":
        from repro.qa import DifferentialChecker
        DifferentialChecker(files={}, include_paths=(), max_configs=12,
                            tables=tables)
    else:
        repro.Session(files={}, include_paths=("include",),
                      tables=tables)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
