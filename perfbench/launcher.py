"""Start each command it is sent and report the command's own peak memory.

    python -I -S perfbench/launcher.py STDOUT_FILE STDERR_FILE

It reads one JSON list of arguments per line of stdin, runs that command
with stdout written to STDOUT_FILE (truncated first) and stderr appended
to STDERR_FILE, waits for it and writes one line back: the exit code and
the command's peak resident set in KiB.  It ends at the end of stdin.

On Linux a process's peak resident set starts at the peak of the process
it was spawned from, so a command spawned straight from the benchmark
would report the benchmark's peak whenever that is the larger.  This
launcher imports next to nothing, so the peak it reports is the
command's own.
"""

import json
import os
import sys


def main(out_path, err_path):
    while True:
        line = sys.stdin.readline()
        if not line:
            return
        argv = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
        ]
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        sys.stdout.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main(*sys.argv[1:])
