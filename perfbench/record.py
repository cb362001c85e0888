"""Record the expected outputs that ``run.py`` checks against.

    python3 perfbench/record.py

Writes ``expected.json`` (output digests of the fixed items, and the
known-defect ledger: every item that fails, with its error class) and
``params_pool.txt`` (one combined digest per params pool entry).  Run it
only on a commit whose outputs are the reference; the torsion queries are
not recorded, because ``run.py`` checks them against the ``act`` oracle.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from passrun import run_items  # noqa: E402


def _split(ids, outs):
    digests, ledger = {}, {}
    for item_id, out in zip(ids, outs):
        if out.startswith("!"):
            ledger[item_id] = out[1:]
        else:
            digests[item_id] = out
    return digests, ledger


def main():
    work = HERE / ".work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    expected = {"digests": {}, "ledger": {}}

    items = [i for i in workloads.torus_items(seed=0) if not i.id.startswith("fixed_locus:B4:")]
    items += workloads.torsion_items(4, {i: [] for i in range(384)})
    ids, outs = _run(items)
    kept = [(i, o) for i, o in zip(ids, outs) if not i.startswith("torsion:")]
    expected["digests"]["torus"], expected["ledger"]["torus"] = _split(*zip(*kept))

    expected["digests"]["matching"], expected["ledger"]["matching"] = _split(
        *_run(workloads.matching_items()))

    items = workloads.params_items(0, work, ROOT / "fixtures")
    items = [i for i in items if not i.id.startswith(("param_record:", "enhancements:"))]
    expected["digests"]["params"], expected["ledger"]["params"] = _split(*_run(items))

    pool = []
    for index in range(workloads.POOL_SIZE):
        ids, outs = _run(workloads.param_items(index, *workloads.pool_entry(index)))
        failed = [(i, o) for i, o in zip(ids, outs) if o.startswith("!")]
        if failed:
            raise SystemExit(f"pool entry {index} fails: {failed}")
        pool.append(workloads.digest("\n".join(outs)))

    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    (HERE / "params_pool.txt").write_text("\n".join(pool) + "\n")
    shutil.rmtree(work)


def _run(items):
    ids, _, _, outs, _ = run_items(items)
    return ids, outs


if __name__ == "__main__":
    main()
