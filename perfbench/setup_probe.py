"""Time one workload's program-side set-up in a fresh interpreter.

Prints the CPU seconds (user + system) the process spends from before
the first import of the program to the end of the workload's
``build()``: imports, bootstrap, engine or pipeline construction.  The
set-up is single-threaded, so this is its wall time less any time the
process waited for a CPU, which on a shared machine is the noisy part.
``run.py`` runs this several times per run and reports the median as
``setup_s``::

    python3 perfbench/setup_probe.py xacml_learn
"""

import os
import resource
import sys


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(name: str) -> None:
    start = cpu_s()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    workloads.WORKLOADS[name].build()
    print(cpu_s() - start)


if __name__ == "__main__":
    main(sys.argv[1])
