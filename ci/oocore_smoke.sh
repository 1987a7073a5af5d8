#!/usr/bin/env bash
# Out-of-core smoke pass (ctest target io.oocore_smoke): runs the same
# postmortem workload twice through pmpr_run — once fully in RAM, once with
# --storage out-of-core under a hard --memory-budget-mb far smaller than
# the compressed working set — and asserts that
#   * the paged run completes and its checksum line is BYTE-identical to
#     the in-RAM run's (the bit-identical-ranks guarantee, end to end),
#     once on the default pool and once on 3 workers with leaves that
#     straddle parts,
#   * paging actually happened (evictions > 0: the budget really was
#     smaller than the working set, so the run could not just cache
#     everything),
#   * the paged run reports a peak resident payload within the budget,
#   * the *measured* (mincore page scan) store residency also honors the
#     budget, modulo kernel-readahead slack — the charge-based policy is
#     audited against ground truth, not just against itself,
#   * peak RSS stays sane (a paged run must not quietly materialize the
#     whole raw representation: its maxrss is capped relative to the
#     in-RAM run's),
#   * each paged run decodes no more bytes than its store holds: a run
#     indexes each pinned part once and cuts every batch from that index,
#     so no chunk is decoded twice — also at one lane, the kSpmv kernel's
#     batch of one window.
# Keeps the --memory-budget-mb paging policy from silently rotting into
# "load everything anyway".
set -euo pipefail

BIN=${1:?usage: oocore_smoke.sh <pmpr_run binary> [out_dir]}
OUT=${2:-.}

# Asserts that the paged run whose output is $1 decoded at most its store's
# bytes. The oocore line prints the store to 0.01 MiB, so the bound allows
# that rounding.
check_decoded() {
  python3 - "$1" <<'EOF'
import re
import sys

text = open(sys.argv[1]).read()
store = re.search(r"^oocore\s*:\s*store ([\d.]+) MiB", text, re.M)
decoded = re.search(r"^read-amp\s*:.*decoded (\d+) B", text, re.M)
assert store and decoded, f"no oocore or read-amp line in {sys.argv[1]}"
bound = (float(store.group(1)) + 0.005) * 1024 * 1024
assert int(decoded.group(1)) <= bound, (
    f"{sys.argv[1]}: decoded {decoded.group(1)} B from a "
    f"{store.group(1)} MiB store, so some chunk was decoded more than once")
print(f"oocore smoke OK: decoded {decoded.group(1)} B from a "
      f"{store.group(1)} MiB store")
EOF
}

IN_RAM="$OUT/OOCORE_in_ram.txt"
PAGED="$OUT/OOCORE_paged.txt"

# Scale 0.5 wiki-talk, 16 parts: a compressed working set of dozens of
# KiB against a 0 MiB budget (= page one part at a time) — every part
# acquisition beyond the first must evict.
COMMON=(--model postmortem --dataset wiki-talk --scale 0.5
        --max-windows 64 --parts 16)

"$BIN" "${COMMON[@]}" --storage in-ram > "$IN_RAM"
"$BIN" "${COMMON[@]}" --storage out-of-core --memory-budget-mb 0 > "$PAGED"

python3 - "$IN_RAM" "$PAGED" <<'EOF'
import re
import sys

def parse(path):
    fields = {}
    with open(path) as f:
        for line in f:
            if ":" in line:
                key, _, rest = line.partition(":")
                fields[key.strip()] = rest.strip()
    return fields

in_ram = parse(sys.argv[1])
paged = parse(sys.argv[2])

# 1. Bit-identical ranks: the checksum line embeds a %.17g digest of every
# window's score vector — byte equality means the paged run reproduced the
# in-RAM ranks exactly.
assert "checksum" in in_ram and "checksum" in paged, \
    f"missing checksum lines: {in_ram.keys()} / {paged.keys()}"
assert in_ram["checksum"] == paged["checksum"], (
    "paged ranks diverge from in-RAM: "
    f"{in_ram['checksum']!r} vs {paged['checksum']!r}")

# 2. The paged run actually paged.
oo = paged.get("oocore", "")
m = re.search(r"(\d+) evictions", oo)
assert m, f"no eviction count in oocore line: {oo!r}"
evictions = int(m.group(1))
assert evictions > 0, \
    f"no evictions — the budget was not smaller than the working set: {oo!r}"

# 3. Peak resident payload obeys the budget: under --memory-budget-mb 0
# the cap is the largest single part, so the peak must be well under the
# full store size.
sizes = re.search(
    r"store ([\d.]+) MiB / raw ([\d.]+) MiB .*peak resident ([\d.]+) MiB",
    oo)
assert sizes, f"cannot parse oocore sizes: {oo!r}"
store_mib, raw_mib, peak_mib = map(float, sizes.groups())
assert store_mib < raw_mib, \
    f"compressed store not smaller than raw: {oo!r}"
assert peak_mib <= store_mib, \
    f"peak resident exceeds the whole store: {oo!r}"

# 4. Measured residency honors the budget. The "residency" line carries
# the mincore-scanned peak next to the charged peak; under budget-mb 0 the
# effective budget is the largest part, i.e. the charged peak. Kernel
# readahead can legitimately fault pages beyond the advised range, so the
# measured peak gets a generous slack (one extra budget's worth or 4 MiB,
# whichever is larger) — what this catches is the store quietly going
# fully resident on stores larger than the slack.
res = paged.get("residency", "")
mres = re.search(r"measured peak (\d+) bytes .*vs charged (\d+) bytes", res)
assert mres, f"cannot parse residency line: {res!r}"
measured_b, charged_b = int(mres.group(1)), int(mres.group(2))
assert measured_b > 0, f"mincore scan saw nothing resident: {res!r}"
slack = max(charged_b, 4 * 1024 * 1024)
assert measured_b <= charged_b + slack, (
    f"measured store residency {measured_b} B blows past the "
    f"{charged_b} B budget charge even with {slack} B readahead slack")

# 5. Real memory: the paged process must not use substantially more than
# the in-RAM run (it holds strictly less graph data; allow 1.5x slack for
# allocator noise on a small-footprint run).
m_ram = re.search(r"(\d+) bytes", in_ram.get("maxrss", ""))
m_paged = re.search(r"(\d+) bytes", paged.get("maxrss", ""))
assert m_ram and m_paged, "missing maxrss lines"
rss_ram, rss_paged = int(m_ram.group(1)), int(m_paged.group(1))
assert rss_paged <= rss_ram * 1.5, (
    f"paged run RSS {rss_paged} not bounded by in-RAM run RSS {rss_ram}")

print(f"oocore smoke OK: checksum match, {evictions} evictions, "
      f"store {store_mib} MiB / raw {raw_mib} MiB, "
      f"peak resident {peak_mib} MiB "
      f"(measured {measured_b} B vs charged {charged_b} B), "
      f"RSS {rss_paged} vs {rss_ram} bytes")
EOF
check_decoded "$PAGED"

# Leaves that straddle parts: on 3 workers, 500 windows over 6 parts make
# leaves that the part sizes do not divide (the 16-part pair above has one
# batch per part, so it cannot tell how a driver cuts its work list). The
# paged run must cut the in-RAM run's leaves, clipped at part boundaries,
# and so print the same checksum.
SPLIT=(--model postmortem --dataset wiki-talk --scale 1.0
       --max-windows 500 --parts 6)
PMPR_THREADS=3 "$BIN" "${SPLIT[@]}" --storage in-ram \
    > "$OUT/OOCORE_split_in_ram.txt"
PMPR_THREADS=3 "$BIN" "${SPLIT[@]}" --storage out-of-core \
    --memory-budget-mb 0 > "$OUT/OOCORE_split_paged.txt"
ram_sum=$(grep '^checksum' "$OUT/OOCORE_split_in_ram.txt" || true)
paged_sum=$(grep '^checksum' "$OUT/OOCORE_split_paged.txt" || true)
if [[ -z "$ram_sum" || "$ram_sum" != "$paged_sum" ]]; then
  echo "3-worker paged ranks diverge from in-RAM: '$ram_sum' vs" \
       "'$paged_sum'" >&2
  exit 1
fi
echo "oocore smoke OK: 3-worker 6-part checksums match ($ram_sum)"
check_decoded "$OUT/OOCORE_split_paged.txt"

# One lane per batch (the kSpmv kernel): one batch per window, every one
# cut from its pinned part's index, and the same ranks in both storage
# kinds.
PMPR_THREADS=3 "$BIN" "${SPLIT[@]}" --max-lanes 1 --storage in-ram \
    > "$OUT/OOCORE_lane1_in_ram.txt"
PMPR_THREADS=3 "$BIN" "${SPLIT[@]}" --max-lanes 1 --storage out-of-core \
    --memory-budget-mb 0 > "$OUT/OOCORE_lane1_paged.txt"
ram_sum=$(grep '^checksum' "$OUT/OOCORE_lane1_in_ram.txt" || true)
paged_sum=$(grep '^checksum' "$OUT/OOCORE_lane1_paged.txt" || true)
if [[ -z "$ram_sum" || "$ram_sum" != "$paged_sum" ]]; then
  echo "one-lane paged ranks diverge from in-RAM: '$ram_sum' vs" \
       "'$paged_sum'" >&2
  exit 1
fi
echo "oocore smoke OK: one-lane checksums match ($ram_sum)"
check_decoded "$OUT/OOCORE_lane1_paged.txt"
