"""Run commands one at a time in a closed loop; time each one and its peak RSS.

    python3 launcher.py PLAN.json

PLAN holds ``rotation`` (a list of [label, argv]), ``seconds``, ``minimum``
and ``out``. The rotation repeats until at least ``minimum`` commands have
run and ``seconds`` have passed. ``{n}`` in an argument becomes the
command's sequence number. Command n writes its stdout to ``stdout-n.txt``
and its stderr to ``stderr-n.txt``. ``out`` receives one record per command:
its label, wall seconds from spawn to exit, exit status and peak RSS.

This process imports next to nothing, on purpose. A child's peak RSS, as
wait4 reports it, includes the memory of the process that spawned it, so the
spawner must stay smaller than any command it measures.
"""

import json
import os
import signal
import sys
import time

TIMEOUT = 170


def run(argv: list[str], number: int) -> tuple[float, int, int]:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, f"stdout-{number}.txt", flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, f"stderr-{number}.txt", flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(TIMEOUT)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    signal.alarm(0)
    return seconds, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    records = []
    deadline = time.perf_counter() + plan["seconds"]
    while len(records) < plan["minimum"] or time.perf_counter() < deadline:
        for label, argv in plan["rotation"]:
            number = len(records)
            argv = [arg.replace("{n}", str(number)) for arg in argv]
            seconds, status, peak_kb = run(argv, number)
            records.append({"label": label, "seconds": seconds, "status": status,
                            "peak_rss_kb": peak_kb})
    with open(plan["out"], "w", encoding="utf-8") as handle:
        json.dump(records, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
