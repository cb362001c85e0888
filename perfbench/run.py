"""The benchmark of abpscalc: one workload, one command.

    python3 perfbench/run.py --workload torus|matching|params \\
        --seed N --seconds S --trace 0|1

Runs passes of the workload (``passrun.py``), each in a fresh interpreter,
one after another on one thread, for about S seconds (it stops at the
pass boundary nearest to S) and for at least MIN_PASSES passes.  Every
output of every pass is checked: against the digests and the known-defect
ledger in ``expected.json`` and ``params_pool.txt``, and the torsion
queries against the brute-force ``act`` oracle.

Every end-to-end time it reports is scaled by the speed probes the
passes take (see ``passrun.probe``) to a machine on which one probe takes
PROBE_NOMINAL_S: on a shared host the machine's speed drifts by tens of
percent between and within runs, and the probes drift with it.

Prints one line per metric, then the result as one JSON object on the
last line.  Exits 1 if any check fails, 2 if there is no abpscalc source
tree beside ``perfbench/``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
each untraced pass is followed by a traced one, and the metrics are the
per-layer ones (see ``spans.py``).  Working files go to ``perfbench/.work``.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

MIN_PASSES = 3
SETUPS_PER_PASS = 2  # extra set-up-only interpreters per timed pass
DEADLINE_S = 150  # start no pass that would likely end after this
POOL_PREFIXES = ("param_record:", "enhancements:", "cuspidal_support:")
# passes import from bytecode caches, as an installed abpscalc does
PASS_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

PROBE_NOMINAL_S = 0.02  # about what a probe takes on a quiet 2-CPU cloud VM

E2E_UNITS = {"setup_s": "s", "results_per_s": "1/s", "item_p50_ms": "ms",
             "item_tail_ms": "ms", "peak_rss_mib": "MiB", "ok_ratio": "ratio"}


def layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def run_pass(workload, seed, mode, deadline):
    out = WORK / f"{workload}-{seed}-{mode}.json"
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", str(out)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, env=PASS_ENV,
                   timeout=max(deadline - time.monotonic(), 1))
    record = json.loads(out.read_text())
    out.unlink()
    return record


class Checker:
    """Checks the outputs of passes against the recorded expectations."""

    def __init__(self, workload):
        expected = json.loads((HERE / "expected.json").read_text())
        self.digests = expected["digests"][workload]
        self.ledger = expected["ledger"][workload]
        self.pool = (HERE / "params_pool.txt").read_text().split()
        self.oracle = {}

    def _fixed(self, item_id):
        """The brute-force answer of a torsion query: does ``act`` fix
        the point?"""
        if item_id not in self.oracle:
            from abpscalc import combicore, extquot
            from workloads import parse_torsion_id

            k, index, p = parse_torsion_id(item_id)
            w = combicore.all_signed_permutations(k)[index]
            t = extquot.point(*p)
            self.oracle[item_id] = extquot.act(w, t) == t
        return self.oracle[item_id]

    def check(self, record):
        """(ids of the items that failed, verified rows, problems) of one
        pass."""
        from workloads import digest

        failed, verified, problems = set(), 0, []
        groups = {}
        for item_id, out, rows, parent in zip(record["ids"], record["outs"],
                                              record["rows"], record["parents"]):
            if out.startswith("!"):
                failed.add(item_id)
                if self.ledger.get(item_id) != out[1:]:
                    problems.append(f"{item_id}: raised {out[1:]}")
            elif item_id in self.ledger or (parent in self.ledger and item_id not in self.digests):
                # a known defect, or an item that takes its output, now
                # answers: not a failure, and there is nothing to compare
                verified += rows
            elif item_id.startswith(POOL_PREFIXES):
                groups.setdefault(item_id.split(":")[1], []).append((out, rows))
            elif item_id.startswith("torsion:"):
                if out == digest("1" if self._fixed(item_id) else "0"):
                    verified += rows
                else:
                    problems.append(f"{item_id}: disagrees with the act oracle")
            elif self.digests.get(item_id) == out:
                verified += rows
            else:
                problems.append(f"{item_id}: output digest {out} != recorded "
                                f"{self.digests.get(item_id)}")
        for index, outs in groups.items():
            if digest("\n".join(o for o, _ in outs)) == self.pool[int(index)]:
                verified += sum(r for _, r in outs)
            else:
                problems.append(f"params pool entry {index}: output digest differs")
        return failed, verified, problems


def scaled(seconds, probe_s):
    """``seconds`` measured while the probe took ``probe_s``, scaled to a
    machine on which it takes PROBE_NOMINAL_S."""
    return seconds * PROBE_NOMINAL_S / probe_s


def scaled_latencies(record):
    """The pass's item latencies, each scaled by the mean of the probes
    taken just before and just after the stretch of items it ran in."""
    marks = record["item_probes"]
    out = []
    for (start, before), (end, after) in zip(marks, marks[1:]):
        out += [scaled(t, (before + after) / 2) for t in record["lat"][start:end]]
    return out


def scaled_setup(record):
    return scaled(record["setup_s"], statistics.median(record["probes"]))


def median_pass(passes):
    """Each item's median scaled latency over the passes."""
    return [statistics.median(item) for item in zip(*(scaled_latencies(r) for r in passes))]


def median_pass_rate(passes):
    """Verified rows per second of the median pass."""
    return statistics.median(r["verified"] for r in passes) / sum(median_pass(passes))


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("torus", "matching", "params"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "abpscalc" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no abpscalc source tree (src/abpscalc, fixtures/) in {ROOT}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    w, seed = args.workload, args.seed

    run_pass(w, seed, "setup", deadline)  # writes the bytecode caches; not measured
    start = time.monotonic()
    timed, traced, setups = [], [], []
    longest = 0.0
    while True:
        t = time.monotonic()
        timed.append(run_pass(w, seed, "timed", deadline))
        if args.trace:
            traced.append(run_pass(w, seed, "traced", deadline))
        else:
            setups += [run_pass(w, seed, "setup", deadline) for _ in range(SETUPS_PER_PASS)]
        longest = max(longest, time.monotonic() - t)
        now = time.monotonic()
        if now + longest > deadline:
            break
        # stop at the pass boundary nearest to --seconds
        if (now + longest / 2 - start >= args.seconds
                and len(timed) >= (1 if args.trace else MIN_PASSES)):
            break

    # Every pass runs the same items, so attempted and failed count the
    # distinct items of the run: the same for every run of one seed,
    # however many passes fit in its time.
    checker = Checker(w)
    failed_ids, problems = set(), []
    for record in timed + traced:
        f, verified, p = checker.check(record)
        failed_ids |= f
        problems += p
        record["verified"] = verified

    untraced_rate = median_pass_rate(timed)
    items = min(len(r["ids"]) for r in timed)
    attempted, failed = items, len(failed_ids)
    env = {"git_sha": git_sha(), "python": platform.python_version(),
           "cpu_count": os.cpu_count(), "seed": seed, "workload": w,
           "passes": len(timed), "traced_passes": len(traced),
           "items_per_pass": items, "seconds": args.seconds,
           "pass_s": [r["pass_s"] for r in timed + traced],
           "pass_unscaled_results_per_s": [r["verified"] / sum(r["lat"]) for r in timed + traced],
           "pass_probe_s": [statistics.median(t for _, t in r["item_probes"])
                            for r in timed + traced]}
    lines = [f"perfbench {w}: seed {seed}, {len(timed)} timed and {len(traced)} traced "
             f"passes of {items} items, python {env['python']}, "
             f"{env['cpu_count']} cpus, git {env['git_sha'] or 'unknown'}"]
    if args.trace:
        from spans import layer_metric_names

        per_pass = [r["layers"] for r in traced]
        whole_run = {
            "setup.import_s": statistics.median(r["import_s"] for r in timed + traced),
            "trace.overhead_ratio": untraced_rate / median_pass_rate(traced),
        }
        metrics = {name: whole_run[name] if name in whole_run
                   else statistics.median(p[name] for p in per_pass)
                   for name in layer_metric_names()}
        for p in per_pass:
            spent = (p["trace.bench_self_s"] + p["trace.unspanned_s"] + p["trace.bookkeeping_s"]
                     + sum(v for k, v in p.items() if k.endswith(".self_s")))
            if abs(spent - p["trace.pass_s"]) > 1e-3:
                problems.append(f"traced pass: parts add to {spent:.6f} s, "
                                f"pass took {p['trace.pass_s']:.6f} s")
        units = {name: layer_unit(name) for name in metrics}
        lines.append("single-threaded layers with no queue: no work waits, "
                     "so no wait times are reported")
    else:
        # the highest percentile that leaves ten item calls beyond it over
        # MIN_PASSES passes, taken of the median pass
        tail_q = 1 - 10 / (items * MIN_PASSES)
        latencies = median_pass(timed)
        metrics = {
            "setup_s": statistics.median(scaled_setup(r) for r in setups + timed),
            "results_per_s": untraced_rate,
            "item_p50_ms": 1e3 * statistics.median(latencies),
            "item_tail_ms": 1e3 * nearest_rank(latencies, tail_q),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in timed),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = E2E_UNITS
        lines.append(f"item_p50_ms and item_tail_ms are p50 and p{100 * tail_q:.3f} of the "
                     f"{items} items' median scaled latencies over {len(timed)} passes")
        lines.append(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted} "
                     "items failed, all in the known-defect ledger)"
                     if not problems else f"fail_ratio {failed / attempted:.6f}")
    for name, value in metrics.items():
        lines.append(f"{name:48s} {value:14.6f} {units[name]}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    (WORK / f"result-{w}-{seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "problems": problems, **result}, indent=1))
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
