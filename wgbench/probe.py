"""Set-up probe: run one ``wgstate`` CLI invocation up to its first layer call.

    python3 wgbench/probe.py <cli argv...>

Started in a fresh interpreter.  The probe imports ``wgstate.cli`` from the
checkout's ``src/``, as the ``wgstate`` entry point does, then puts a hook on
every traced layer function and calls ``wgstate.cli.main``.  The first hooked
call stops the run.  The probe prints the seconds spent in the program: from
its own first statement to the end of the import (numpy included), plus
from the call of ``main`` to the first layer call (config parsing, and
building the lattice, profile and input).  Interpreter start-up and the
benchmark's own imports and hooks are left out; no change to the package
can move them.  Exits 1 if the invocation ends without calling into a layer.
"""

import time

_STARTED = time.perf_counter()

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import wgstate.cli

_IMPORTED = time.perf_counter()

import tracing


class _Reached(BaseException):
    pass


def _hook(name, fn):
    def reached(*args, **kwargs):
        raise _Reached(time.perf_counter())
    return reached


def main(argv) -> int:
    if Path(wgstate.__file__).resolve().parent != (SRC / "wgstate").resolve():
        print(f"probe: imported wgstate from {wgstate.__file__}, not from {SRC}",
              file=sys.stderr)
        return 1
    tracing.patch(_hook, names=set(tracing.TARGETS) - {"cli.main"})
    resumed = time.perf_counter()
    try:
        code = wgstate.cli.main(argv)
    except _Reached as reached:
        print(repr(_IMPORTED - _STARTED + reached.args[0] - resumed))
        return 0
    print(f"probe: invocation exited {code} before calling into a layer", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
