"""The three CLI workloads: fixed `nbhd` commands with pinned results.

Every command runs in-process through `nbhd.cli.main(argv)` with stdout
captured.  Its exit code and output are checked after the timer stops:
small outputs must match the pinned text exactly; large ones must match a
pinned SHA-256 and a pinned item count, counted in the text itself.  The
commands do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout
from dataclasses import dataclass
from time import perf_counter_ns

import nbhd.cli


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    rc: int
    text: str | None = None  # exact stdout, for small outputs
    sha256: str | None = None  # for large outputs, with the two fields below
    item_marker: str = ""
    items: int = 0

    def check(self, rc: int, out: str) -> str | None:
        """None when the result matches its pins, else what differs."""
        if rc != self.rc:
            return f"exit code {rc}, expected {self.rc}"
        if self.text is not None:
            return None if out == self.text else f"output {out[:120]!r}, expected {self.text!r}"
        items = out.count(self.item_marker)
        if items != self.items:
            return f"{items} items, expected {self.items}"
        digest = hashlib.sha256(out.encode()).hexdigest()
        return None if digest == self.sha256 else f"output sha256 {digest}, expected {self.sha256}"


def _cmd(line: str, rc: int = 0, **pins) -> Command:
    return Command(tuple(line.split()), rc, **pins)


# Every command takes well under a second, so a run repeats it a few dozen
# times and its median repetition is not hostage to one busy stretch of a
# shared host.  The heavier commands these stand in for (@C by filter at
# n=4, @M,@C at n=5, the monotone class at n=3) take 1.5 to 9 s each.
WORKLOADS = {
    # Membership filtering over 65,536 famasks (256 hits), and up-set
    # backtracking with leaf programs: 17 of 168 leaves through @C at n=4,
    # 2 of 7,581 through @Cont at n=5.
    "bax-sparse": (
        _cmd("bax enum --n 4 --axioms @Cont --count", text='{"count":256}\n'),
        _cmd("bax enum --n 4 --axioms @M,@C --count", text='{"count":17}\n'),
        _cmd("bax enum --n 5 --axioms @M,@Cont --count", text='{"count":2}\n'),
    ),
    # The same layers with dense results: decoding, Family objects, JSON.
    "bax-dense": (
        _cmd(
            "bax enum --n 4 --axioms @N",
            sha256="e4f6c634e45601fa7792383a8e0bf4c6c6307291b59532a7120dcde65a8cb465",
            item_marker="],[",
            items=32767,  # separators between 32,768 members
        ),
        _cmd(
            "bax enum --n 5 --axioms @M",
            sha256="4201916d31e5786061d2efe14477d5d0d8019f03871aac02bed07df266186880",
            item_marker="],[",
            items=7580,  # separators between 7,581 members
        ),
    ),
    # Canonical forms over the 512 filter frames at n=3, per-frame target
    # checks, full refutation sweeps (@Conv holds on every filter frame),
    # the @Four witness and the whole-frame iv condition.
    "search-canon": (
        _cmd(
            "search enumerate --n 3 --constraints filter --canonical",
            sha256="0e652a35f60c93ba1a9fc4fb60478bfb6a083c88ba38df8483b03900fdc8a2f8",
            item_marker='{"n":3,',
            items=104,
        ),
        _cmd(
            "search countermodel --mode count --target @T --constraints filter --max-n 3",
            text='{"count":21,"checked":117}\n',
        ),
        _cmd(
            "search countermodel --mode count --target @Conv --constraints filter --max-n 3",
            text='{"count":117,"checked":117}\n',
        ),
        _cmd(
            "search countermodel --target @Four --constraints filter --max-n 4",
            rc=1,
            text='{"found":true,"frame":{"n":2,"N":[[3],[1,3]]},"assignment":{"b":1},"checked":5}\n',
        ),
        _cmd("search enumerate --n 3 --constraints topological --canonical --count", text='{"count":9}\n'),
    ),
}


class BatchWorkload:
    """One pass runs every command once, in order."""

    def __init__(self, name: str, seed: int) -> None:
        self.commands = WORKLOADS[name]

    def run_pass(self, clock, tracer=None):
        """Adds each command's time to `clock`, calibrating before each;
        returns the failure messages."""
        failures = []
        for cmd in self.commands:
            clock.split()
            buf = io.StringIO()
            rc = None
            with redirect_stdout(buf):
                start = perf_counter_ns()
                try:
                    rc = nbhd.cli.main(list(cmd.argv))
                except (Exception, SystemExit) as exc:
                    problem = f"raised {exc!r}"
                else:
                    problem = None
                end = perf_counter_ns()
            clock.add(end - start)
            out = buf.getvalue()
            if tracer is not None:
                tracer.counters["cli.stdout_bytes"] += len(out.encode())
            problem = problem or cmd.check(rc, out)
            if problem:
                failures.append(f"nbhd {' '.join(cmd.argv)}: {problem}")
        return failures
