"""Check what starting the CLI loads: import pdneg.cli, build its full parser
and each command's own parser (the argparse parsers main falls back to for
help, usage errors and command lines it does not read itself), print each
module that adds to this interpreter, one a line, and exit 1 if any of them is
one the CLI has no need of.

    python -I tests/startup_modules.py [SRC]

SRC, when given, is put first on sys.path so that pdneg is imported from
there; without it the installed package is.  Run it under -I, so that no
environment variable or user site directory loads modules of its own.
"""

import sys

#: Modules the CLI does not use; dataclasses alone pulls in inspect, ast, dis
#: and tokenize, and runs exec for each class at import time.
FORBIDDEN = ("dataclasses", "inspect", "typing", "pathlib")

if len(sys.argv) > 1:
    sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import pdneg.cli  # noqa: E402

pdneg.cli._build_parser()
for name in pdneg.cli._COMMANDS:
    pdneg.cli._command_parser(name)
added = sorted(set(sys.modules) - before)
print("\n".join(added))
loaded = [name for name in FORBIDDEN if name in added]
if loaded:
    sys.exit(f"starting the CLI loads {', '.join(loaded)}")
