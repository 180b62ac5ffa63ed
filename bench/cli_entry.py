"""Run the frontlab command line as the `frontlab` console script does.

Usage: python3 bench/cli_entry.py <frontlab arguments>

After the command finishes, the last line written to stderr is a JSON object
with the child's import time of `frontlab.cli` and its peak resident set size
in KiB (the larger of its own and its waited-for workers').
"""
import json
import resource
import sys
import time


def _run(argv):
    start = time.perf_counter()
    from frontlab.cli import main
    import_s = time.perf_counter() - start
    code = main(argv)
    sys.stdout.flush()
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    sys.stderr.write("\n" + json.dumps({"import_s": import_s,
                                        "maxrss_kb": peak}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_run(sys.argv[1:]))
