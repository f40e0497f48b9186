"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

run.py writes the job file and starts this script with `src` on
PYTHONPATH. The worker imports hierclust, makes the workload's input files
(the set-up), and then, unless the job says "setup_only", makes every call
into hierclust and writes every output. It writes a JSON result file: the
CLOCK_MONOTONIC time at which set-up ended, the wall time of the calls, and
the process's peak resident memory. Correctness checks run in run.py, not
here, so that they add nothing to this process's peak memory.
"""

import json
import resource
import sys
import time
import traceback


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    result = {}
    try:
        tracer = None
        if job["trace"] != "off":
            import spans

            tracer = spans.Tracer(alloc=job["trace"] == "alloc")
            spans.install(tracer)
        import workloads

        workload, params, seed = job["workload"], job["params"], job["seed"]
        workloads.SETUP[workload](params, seed, job["inputs"])
        result["setup_end"] = time.monotonic()
        if not job["setup_only"]:
            if tracer is not None:
                tracer.phase = "work"
            start = time.perf_counter()
            workloads.RUN[workload](params, seed, job["inputs"], job["out"])
            end = time.perf_counter()
            result["wall_s"] = end - start
            if tracer is not None:
                tracer.window = (start, end)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.dump(job["trace_file"])
    except Exception:
        result["error"] = traceback.format_exc()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
