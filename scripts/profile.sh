#!/usr/bin/env bash
# A sampling profile of one benchmark workload, for hosts without `perf`.
#
#   scripts/profile.sh <workload> [runs=10] [regex...]
#
# Builds the benchmark child with frame pointers and symbols into
# target/profile (nothing under benchmark/ is written), runs it `runs`
# times under the SIGPROF sampler in scripts/sigprof.c, and prints the
# share of samples per function: leaf (the function was running) and
# inclusive (it was on the stack). Each extra argument is a regex whose
# inclusive share is printed as one line, e.g. 'hashbrown|HashMap'.
#
# One run is ≈ 280 samples at the kernel's 4 ms tick, so a share below a
# few percent needs ten runs or more before it means anything. Inlined
# callees are charged to the function they were inlined into.
#
# Samples count host time, and the host is shared: the same binary has
# given 3 438 samples per 12 runs in a slow phase and 2 512 an hour
# later. The first line therefore also prints the per-run sample counts
# (min / median / max); compare two profiles' sample counts only when
# those lines say the phases matched.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/profile.sh <workload> [runs=10] [regex...]}
runs=${2:-10}
shift $(( $# < 2 ? $# : 2 ))

for tool in cc nm python3; do
    if ! command -v "$tool" > /dev/null; then
        echo "profile.sh: no \`$tool\` on this host, nothing profiled"
        exit 0
    fi
done

dir=target/profile
mkdir -p "$dir"
cc -O2 -shared -fPIC -o "$dir/sigprof.so" scripts/sigprof.c -lpthread
RUSTFLAGS="-C force-frame-pointers=yes -g" cargo build --release --quiet --offline \
    --manifest-path benchmark/Cargo.toml --target-dir "$dir"
bin=$dir/release/vgprs-benchmark

rm -f "$dir"/samples.*
for run in $(seq "$runs"); do
    SIGPROF_OUT=$dir/samples.$run LD_PRELOAD=$PWD/$dir/sigprof.so \
        "$bin" --child --workload "$workload" --seed 42 > /dev/null
done

nm -C --defined-only "$bin" | python3 -c '
import bisect, collections, os, re, sys

binary, files, patterns = os.path.realpath(sys.argv[1]), sys.argv[2].split(), sys.argv[3:]
symbols = sorted(
    (int(addr, 16), name)
    for addr, kind, name in (line.rstrip("\n").split(" ", 2) for line in sys.stdin if line[0] != " ")
    if kind in "tTwW"
)
starts = [addr for addr, _ in symbols]
escapes = {"$LT$": "<", "$GT$": ">", "$C$": ",", "$u20$": " ", "$RF$": "&", "$u7b$": "{", "$u7d$": "}", "..": "::"}

def pretty(name):
    for raw, text in escapes.items():
        name = name.replace(raw, text)
    return re.sub(r"::h[0-9a-f]{16}$", "", name)

def resolver(maps):
    spans, bias = [], None  # (start, end, in the binary?, label)
    for line in maps:
        fields = line.split()
        if len(fields) < 6:
            continue
        lo, hi = (int(x, 16) for x in fields[0].split("-"))
        ours = os.path.realpath(fields[5]) == binary
        if ours and bias is None:
            bias = lo  # a PIE: `nm` addresses count from its first mapping
        spans.append((lo, hi, ours, "[" + os.path.basename(fields[5]) + "]"))
    def resolve(pc):
        for lo, hi, ours, label in spans:
            if lo <= pc < hi:
                if not ours:
                    return label
                at = bisect.bisect_right(starts, pc - bias) - 1
                return pretty(symbols[at][1]) if at >= 0 else label
        return "[unmapped]"
    return resolve

leaf, inclusive, matching, total = collections.Counter(), collections.Counter(), collections.Counter(), 0
per_run = []
for path in files:
    before = total
    text = open(path).read()
    samples, _, maps = text.partition("--maps--\n")
    resolve = resolver(maps.splitlines())
    for line in samples.splitlines():
        pcs = [int(word, 16) for word in line.split()]
        if not pcs:
            continue
        # A return address points after the call: step back into it.
        names = [resolve(pcs[0])] + [resolve(pc - 1) for pc in pcs[1:]]
        total += 1
        leaf[names[0]] += 1
        inclusive.update(set(names))
        matching.update(p for p in patterns if any(re.search(p, name) for name in names))
    per_run.append(total - before)

if not total:
    sys.exit("profile.sh: no samples (did the child run?)")
per_run.sort()
print(f"{total} samples over {len(files)} runs "
      f"(per run: min {per_run[0]} / median {per_run[len(per_run) // 2]} / max {per_run[-1]})")
for title, table in (("leaf", leaf), ("inclusive", inclusive)):
    print(f"\n-- {title} share, top 30")
    for name, n in table.most_common(30):
        print(f"{100 * n / total:6.2f} %  {name[:110]}")
for pattern in patterns:
    print(f"\n-- samples with /{pattern}/ anywhere on the stack: "
          f"{matching[pattern]} ({100 * matching[pattern] / total:.2f} %)")
' "$bin" "$(echo "$dir"/samples.*)" "$@"
