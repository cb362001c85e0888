"""One pass of a workload in a fresh interpreter, so that every
``lru_cache`` of the program starts empty, as it does for each
``abpscalc`` command.

    python3 perfbench/passrun.py --workload W --seed N --mode M --out FILE

``--mode setup`` stops after set-up (importing ``abpscalc`` and building
the workload's inputs); ``timed`` runs every item as a closed loop with
one client; ``traced`` does the same with spans around each layer, and
writes the spans beside FILE (``.spans.tsv.gz``).  The pass writes one
JSON object to FILE: timings, and per item its id,
latency, row count and the digest of its rendered output (or ``!`` and
the error class).  Checking the digests is left to ``run.py``.

Between items, at most every PROBE_EVERY_S seconds, the pass times a
fixed piece of pure-Python work, the *probe*, and records how long it took
and after how many items.  On a shared host the speed of the machine
drifts by tens of percent within seconds, and the program's work drifts
with it; ``run.py`` scales each item's latency by the probes around it.
"""

import argparse
import gc
import json
import resource
import shutil
import sys
import time
from collections import deque
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE_EVERY_S = 0.2
PROBE_ROUNDS = 400  # about 20 ms on a quiet 2-CPU cloud VM


def probe():
    """Seconds a fixed piece of pure-Python work takes: the same mix of
    fraction arithmetic, tuples, sorting and dictionaries the program
    spends its time in.  The collector is off meanwhile, so the program's
    heap does not change what the probe costs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        table, x = {}, Fraction(1, 3)
        for i in range(PROBE_ROUNDS):
            x = (x * 7 + Fraction(i % 11, 13)) % 1
            key = tuple(sorted((x * k) % 1 for k in range(1, 6)))
            table[key] = table.get(key, 0) + 1
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def run_items(items, tracer=None, probes=None):
    """Run the items one after another; return their ids, latencies, row
    counts, output digests (``!`` and the error class on failure) and the
    id of the item each follow-up item came from (``None`` if none).

    With a list ``probes``, append to it ``[items done, probe seconds]``
    before the first item, after the last, and between items every
    PROBE_EVERY_S seconds."""
    from workloads import digest

    clock = time.perf_counter
    ids, lat, rows, outs, parents = [], [], [], [], []
    queue = deque((item, None) for item in items)
    if probes is not None:
        probes.append([0, probe()])
        next_probe = clock() + PROBE_EVERY_S
    while queue:
        if probes is not None and clock() >= next_probe:
            probes.append([len(ids), probe()])
            next_probe = clock() + PROBE_EVERY_S
        item, parent = queue.popleft()
        if tracer:
            tracer.item = len(ids)
        t = clock()
        try:
            result = item.call()
            dt = clock() - t
        except Exception as exc:  # a failing item is recorded, not fatal
            dt = clock() - t
            failure = "!" + type(exc).__name__
        else:
            failure = None
        if tracer:
            tracer.item = -1
        ids.append(item.id)
        lat.append(dt)
        parents.append(parent)
        if failure:
            rows.append(0)
            outs.append(failure)
            continue
        rows.append(item.rows(result))
        outs.append(digest(item.render(result)))
        if item.then:
            queue.extendleft((i, item.id) for i in reversed(item.then(result)))
    if probes is not None:
        probes.append([len(ids), probe()])
    return ids, lat, rows, outs, parents


def peak_rss_kib():
    """Peak resident memory of this process, in KiB.  On Linux this is
    ``VmHWM``, the peak of the interpreter's own address space:
    ``getrusage``'s ``ru_maxrss`` also keeps the resident size of the
    parent at the moment it started this process, which grows as ``run.py``
    collects the records of earlier passes."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    clock = time.perf_counter
    t0 = clock()
    sys.path.insert(0, str(ROOT / "src"))
    import abpscalc.cli  # noqa: F401  (imports every layer)

    import_s = clock() - t0
    if Path(abpscalc.cli.__file__).resolve().parent != ROOT / "src" / "abpscalc":
        raise SystemExit(f"abpscalc imported from {abpscalc.cli.__file__}, not the checkout")
    import workloads
    from spans import Tracer

    workdir = args.out.with_suffix(".d")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    items = workloads.build(args.workload, args.seed, ROOT, workdir)
    setup_s = clock() - t0
    record = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "setup_s": setup_s, "import_s": import_s}
    record["probes"] = [probe(), probe()]  # after set-up, outside its time
    if args.mode == "setup":
        shutil.rmtree(workdir)
        args.out.write_text(json.dumps(record))
        return

    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    probes = []
    pass_t0 = clock()
    ids, lat, rows, outs, parents = run_items(items, tracer, probes)
    pass_s = clock() - pass_t0
    peak_rss_mib = peak_rss_kib() / 1024
    shutil.rmtree(workdir)

    record.update(pass_s=pass_s, peak_rss_mib=peak_rss_mib, item_probes=probes,
                  ids=ids, lat=lat, rows=rows, outs=outs, parents=parents)
    if tracer:
        record["layers"] = tracer.metrics(pass_s, sum(lat))
        tracer.write(args.out.with_suffix(".spans.tsv.gz"), pass_t0)
    args.out.write_text(json.dumps(record))


if __name__ == "__main__":
    main()
