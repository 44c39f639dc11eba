"""One cold run of a workload's item list, in a fresh interpreter.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--corrupt-item K]
    python3 perfbench/worker.py --capture-golden

The worker puts the checkout's ``src`` first on ``sys.path``, times
``import supertorus`` plus ``cli.build_parser()`` before it imports anything
else, runs every item with tracing on or off, checks each result, and prints
one JSON object.  ``--corrupt-item K`` flips one byte of item K's output
before it is checked; it exists for the negative control.
``--capture-golden`` records the digests of the fixed items, of every
library call a seed can draw, and of the default seed's other items; run it
only on a commit whose output is the reference.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
DEFAULT_SEED = 0


def timed_setup() -> float:
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import supertorus
    from supertorus import cli

    cli.build_parser()
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(supertorus.__file__)) != os.path.join(SRC, "supertorus"):
        raise SystemExit(f"imported supertorus from {supertorus.__file__}, not from {SRC}")
    return elapsed


def host_reference() -> float:
    """Seconds for a fixed pure-Python loop: a record of how fast this host
    ran at the moment, since other machines' load changes it."""
    t0 = time.perf_counter()
    total = 0
    for k in range(300_000):
        total += k * k
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    setup_s = timed_setup()
    import argparse  # already loaded by the CLI, so parsing after set-up costs nothing

    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--capture-golden", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt-item", type=int, default=-1)
    opts = parser.parse_args(argv)
    if opts.setup_only:
        print('{"setup_s": %r, "host_ref_s": %r}' % (setup_s, host_reference()))
        return 0

    import json
    import resource
    import traceback
    from types import SimpleNamespace

    from supertorus import cli, cohomology, exterior, verify

    import workloads
    from tracing import Tracer

    env = SimpleNamespace(co=cohomology, ex=exterior, cli=cli, vf=verify,
                          corrupt_next=False, emit_wrap=None)
    if opts.capture_golden:
        return capture_golden(env, workloads)

    corrupt = opts.corrupt_item
    items = workloads.build(opts.workload, opts.seed, env)
    with open(GOLDEN) as fh:
        golden = json.load(fh)

    tracer = None
    if opts.trace:
        tracer = Tracer()
        tracer.install()
        env.emit_wrap = lambda write: tracer.wrap("cli.emit", write)

    records, wall, stdout_bytes, digests_checked, peak = [], 0.0, 0, 0, 0.0
    for index, item in enumerate(items):
        env.corrupt_next = index == corrupt and item.kind == "cli"
        error = None
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = item.run(env)
        except Exception:
            result, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall += elapsed
        if error is None:
            digest, errors = check(item, result, env, index == corrupt)
            if item.kind == "cli":
                stdout_bytes += result[1].nbytes
            if item.key in golden:
                digests_checked += 1
                if golden[item.key] != digest:
                    errors.insert(0, "output differs from the reference digest")
        else:
            errors = [f"raised {error}"]
        records.append({"key": item.key, "seconds": elapsed, "errors": errors})
        del result

    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": peak,
        "digests_checked": digests_checked,
        "items": records,
    }
    if tracer:
        layers = tracer.metrics(wall)
        layers["cli.stdout_bytes"] = stdout_bytes
        out["layers"] = layers
        out["probe"] = tracer.probe
    print(json.dumps(out))
    return 0


def check(item, result, env, corrupt: bool) -> tuple[str, list[str]]:
    """The digest of the item's canonical output and the oracle's complaints."""
    import workloads

    try:
        if item.kind == "cli":
            digest = result[1].hash.hexdigest()
        else:
            text = item.canonical(result, env)
            digest = workloads.sha256(workloads.flip_first_byte(text) if corrupt else text)
        return digest, item.check(result, env)
    except Exception as exc:  # a check that cannot read the output fails the item
        return "", [f"check raised {type(exc).__name__}: {exc}"]


def capture_golden(env, workloads) -> int:
    import json
    import random

    items = workloads.cohomology_pool()
    items += workloads.cohomology_api(random.Random(DEFAULT_SEED))
    items += workloads.matchings_cli(random.Random(DEFAULT_SEED))
    items += workloads.build("verify-cli", DEFAULT_SEED, env)
    golden = {}
    for item in items:
        if item.key in golden:
            continue
        digest, errors = check(item, item.run(env), env, False)
        if errors:
            print(f"not captured, {item.key} fails its checks: {errors}", file=sys.stderr)
            return 1
        golden[item.key] = digest
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"captured {len(golden)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
