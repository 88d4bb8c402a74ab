"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up runs from before `import tamelab` until the jobs are ready: the
import, fixture loads, seeded input generation and certificate files.
The seconds are at reference speed, like the job times (hostspeed.py).
Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import shutil
import sys
from pathlib import Path

from hostspeed import HostClock

HERE = Path(__file__).resolve().parent


def main(workload: str, seed: int, workdir: Path) -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    with HostClock() as clock:
        begin = clock.mark()
        import jobs

        jobs.build(workload, seed, workdir)
        end = clock.mark()
    elapsed = clock.corrected(begin, end)
    shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
