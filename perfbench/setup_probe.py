"""What a fresh `krein-ext` invocation pays before any task runs: import
`kreinext.cli` and build the system of every given config file.

Usage: python3 setup_probe.py <source dir> <config.ini>...
"""

import sys

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import kreinext.cli as cli

    for path in sys.argv[2:]:
        cli.build_system(cli.load_config_file(path))
