#!/usr/bin/env python3
"""Self-test for ci/pmpr_analyze.py.

Each fixture under tests/analyze/fixtures/ is a miniature repo: its own
layers.toml at the fixture root plus a src/ tree. The analyzer runs with
--root <fixture> --pass all, and the test asserts:

  * every bad_* fixture exits non-zero and reports exactly its expected
    rule id (and no other rule), once per violation site where
    EXPECTED_FINDINGS counts the sites,
  * the clean fixture — which exercises legal includes, a macro with a
    direct include, consistent lock order, a condvar wait, and a
    submit-after-unlock — exits zero with no findings.

Registered as the ctest target `analyze.fixtures`.
"""

import argparse
import pathlib
import re
import subprocess
import sys

# fixture directory -> rule id it must (exclusively) trip.
EXPECTED = {
    "bad_layer_backedge": "layer-violation",
    "bad_include_cycle": "include-cycle",
    "bad_lock_inversion": "lock-order-cycle",
    "bad_lock_across_submit": "lock-across-wait",
    "bad_missing_pragma_once": "missing-pragma-once",
    "bad_internal_leak": "internal-header-leak",
    "bad_transitive_macro": "transitive-macro-include",
    "clean": None,
}

# Fixtures with more than one violation site -> how many findings they
# must report (one per site).
EXPECTED_FINDINGS = {
    # pool.submit() and parallel_reduce() under a LockGuard.
    "bad_lock_across_submit": 2,
}

# Only finding lines (`rel:line: [rule] msg`), not the `pmpr-analyze[all]:`
# summary line.
RULE_RE = re.compile(r"^\S+:\d+: \[([a-z-]+)\]", re.MULTILINE)


def run_analyze(root, fixture):
    return subprocess.run(
        [
            sys.executable,
            str(root / "ci" / "pmpr_analyze.py"),
            "--root",
            str(fixture),
            "--pass",
            "all",
        ],
        capture_output=True,
        text=True,
        check=False,
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=".", help="repo root")
    args = ap.parse_args()
    root = pathlib.Path(args.root).resolve()
    fixture_dir = root / "tests" / "analyze" / "fixtures"

    failures = []
    on_disk = {p.name for p in fixture_dir.iterdir() if p.is_dir()}
    missing = set(EXPECTED) - on_disk
    stray = on_disk - set(EXPECTED)
    if missing:
        failures.append(f"missing fixtures: {sorted(missing)}")
    if stray:
        failures.append(f"fixtures without an expectation: {sorted(stray)}")

    for name, want_rule in sorted(EXPECTED.items()):
        fixture = fixture_dir / name
        if not fixture.exists():
            continue
        proc = run_analyze(root, fixture)
        found = RULE_RE.findall(proc.stdout)
        got_rules = set(found)
        if want_rule is None:
            if proc.returncode != 0 or got_rules:
                failures.append(
                    f"{name}: expected clean, got exit={proc.returncode} "
                    f"rules={sorted(got_rules)}\n{proc.stdout}{proc.stderr}"
                )
            else:
                print(f"ok   {name}: clean as expected")
        else:
            if proc.returncode == 0:
                failures.append(f"{name}: expected a violation, got none")
            elif got_rules != {want_rule}:
                failures.append(
                    f"{name}: expected exactly [{want_rule}], got "
                    f"{sorted(got_rules)}\n{proc.stdout}{proc.stderr}"
                )
            elif len(found) != EXPECTED_FINDINGS.get(name, len(found)):
                failures.append(
                    f"{name}: expected {EXPECTED_FINDINGS[name]} findings, "
                    f"got {len(found)}\n{proc.stdout}{proc.stderr}"
                )
            else:
                print(f"ok   {name}: tripped [{want_rule}] only")

    if failures:
        print("\n".join(f"FAIL {f}" for f in failures))
        return 1
    print(f"pmpr-analyze fixtures: all {len(EXPECTED)} behaved as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
