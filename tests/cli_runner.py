"""Run the isocenter CLI in process and capture what it writes.

``CliRunner().invoke(main, args)`` calls ``main(args)`` with ``sys.stdout``
and ``sys.stderr`` replaced, and returns a ``Result`` with the text of
each stream, both interleaved as written (``output``), the exit code and
the exception that ended the call: the ``SystemExit`` of a handled exit,
or an exception that escaped ``main`` (exit code 1).
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass


@dataclass
class Result:
    exit_code: int
    exception: BaseException | None
    stdout: str
    stderr: str
    output: str

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


class _Stream(io.StringIO):
    """A captured stream that also copies each write to a shared one."""

    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self.mixed = mixed

    def write(self, s: str) -> int:
        self.mixed.write(s)
        return super().write(s)


class CliRunner:
    def invoke(self, main, args) -> Result:
        mixed = io.StringIO()
        out, err = _Stream(mixed), _Stream(mixed)
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        exit_code, exception = 0, None
        try:
            main(list(args), prog_name="isocenter")
        except SystemExit as exc:
            exception = exc
            exit_code = 0 if exc.code is None else exc.code
        except Exception as exc:
            exception, exit_code = exc, 1
        finally:
            sys.stdout, sys.stderr = saved
        return Result(exit_code, exception, out.getvalue(), err.getvalue(), mixed.getvalue())
