"""Fast self-test of the benchmark itself (about a minute on one core).

    python3 perfbench/selftest.py

Runs every workload at a small size, untraced and traced, and checks that
each prints exactly the metrics ``BENCHMARK.json`` names, each with its
unit, with no failed operation and correct outputs.  Then it makes SPM and
the oracle return their fitted target negated, and checks that every
workload's ground-truth checks reject that model.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run  # pins BLAS threads and puts the checkout's src/ on the path first

SEED = 1


def metric_problems(result: dict, spec: list[dict]) -> list[str]:
    problems = []
    printed = result["metrics"]
    if set(printed) != {m["name"] for m in spec}:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(printed) ^ {m['name'] for m in spec})}")
    for m in spec:
        got = printed.get(m["name"])
        if got is not None and got["unit"] != m["unit"]:
            problems.append(f"{m['name']} has unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']} errors={result['errors']}")
    return problems


def negated_target(fit):
    def wrong(*args, **kwargs):
        model = fit(*args, **kwargs)
        target = replace(model.target, w=-model.target.w, b=-model.target.b)
        return replace(model, target=target)

    return wrong


def wrong_model_caught(name: str) -> bool:
    from puselect import estimators
    from workloads import WORKLOADS, CheckFailed

    wl = WORKLOADS[name](run.WORK_ROOT / f"{name}-wrong", SEED, small=True)
    run.prepare(wl)
    originals = {f: getattr(estimators, f) for f in ("fit_spm", "fit_real_oracle")}
    for f, fn in originals.items():
        setattr(estimators, f, negated_target(fn))
    try:
        ran = all(run.in_process(args)[0] for args in wl.round_argvs(0, jobs=1))
    finally:
        for f, fn in originals.items():
            setattr(estimators, f, fn)
    if not ran:
        print(f"{name}: the wrong model did not run to its end")
        return False
    try:
        wl.check([0])
    except CheckFailed as exc:
        print(f"{name}: wrong model rejected: {exc}")
        return True
    print(f"{name}: wrong model passed the checks")
    return False


def main() -> int:
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run.run(name, SEED, 0.0, trace, small=True)
            problems = metric_problems(result, spec["per_layer" if trace else "end_to_end"])
            print(f"{name} trace={int(trace)}: {'ok' if not problems else '; '.join(problems)}")
            ok &= not problems
    for name in WORKLOADS:
        ok &= wrong_model_caught(name)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
