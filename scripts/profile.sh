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
# inclusive share is printed as one line, e.g. 'hashbrown|HashMap', with
# its samples split by thread (0 is the main thread, then the load
# engine's build workers in creation order).
#
# One run is ≈ 280 samples at the kernel's 4 ms tick, so a share below a
# few percent needs ten runs or more before it means anything. The symbol
# table charges inlined callees to the function they were inlined into;
# a third table charges each leaf to its innermost inlined function from
# the debug info (`addr2line -i` or `llvm-symbolizer`; skipped with a note
# when the host has neither). Cargo strips a release build's debug info
# unless told otherwise, so the build keeps it (CARGO_PROFILE_RELEASE_STRIP).
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
cc -O2 -shared -fPIC -o "$dir/sigprof.so" scripts/sigprof.c -lpthread -ldl
CARGO_PROFILE_RELEASE_STRIP=none RUSTFLAGS="-C force-frame-pointers=yes -g" cargo build --release --quiet --offline \
    --manifest-path benchmark/Cargo.toml --target-dir "$dir"
bin=$dir/release/vgprs-benchmark

rm -f "$dir"/samples.*
for run in $(seq "$runs"); do
    SIGPROF_OUT=$dir/samples.$run LD_PRELOAD=$PWD/$dir/sigprof.so \
        "$bin" --child --workload "$workload" --seed 42 > /dev/null
done

nm -C --defined-only "$bin" | python3 -c '
import bisect, collections, os, re, shutil, subprocess, sys

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
    def resolve(pc):  # (name, address in the binary or None)
        for lo, hi, ours, label in spans:
            if lo <= pc < hi:
                if not ours:
                    return label, None
                at = bisect.bisect_right(starts, pc - bias) - 1
                return (pretty(symbols[at][1]) if at >= 0 else label), pc - bias
        return "[unmapped]", None
    return resolve

def innermost(addresses):
    """The innermost inlined function at each address, from the debug info."""
    addresses = sorted(addresses)
    if shutil.which("addr2line"):
        # `-a` heads the frames of each address, innermost first, with it.
        cmd, parse = ["addr2line", "-a", "-i", "-f", "-C", "-e", binary], lambda out: [
            block.split("\n")[0] for block in re.split(r"^0x[0-9a-f]+\n", out, flags=re.M)[1:]]
    elif shutil.which("llvm-symbolizer"):
        # Blank lines separate addresses; each frame is a function line and a location line.
        cmd, parse = ["llvm-symbolizer", "--inlines", "--demangle", "--obj=" + binary], lambda out: [
            block.split("\n")[0] for block in out.strip("\n").split("\n\n")]
    else:
        return None
    out = subprocess.run(cmd, input="".join(f"{a:#x}\n" for a in addresses),
                         capture_output=True, text=True, check=True).stdout
    return dict(zip(addresses, (pretty(name) for name in parse(out))))

leaf, inclusive, matching, total = collections.Counter(), collections.Counter(), collections.Counter(), 0
by_thread = collections.defaultdict(collections.Counter)  # pattern -> thread -> samples
leaf_at, leaf_outside = collections.Counter(), collections.Counter()  # by address in the binary, by name
per_run = []
for path in files:
    before = total
    text = open(path).read()
    samples, _, maps = text.partition("--maps--\n")
    resolve = resolver(maps.splitlines())
    for line in samples.splitlines():
        thread, *pcs = line.split() or ["@-"]
        pcs = [int(word, 16) for word in pcs]
        if not pcs:
            continue
        # A return address points after the call: step back into it.
        (name, at), *callers = [resolve(pcs[0])] + [resolve(pc - 1) for pc in pcs[1:]]
        names = [name] + [caller for caller, _ in callers]
        if at is None:
            leaf_outside[name] += 1
        else:
            leaf_at[at] += 1
        total += 1
        leaf[names[0]] += 1
        inclusive.update(set(names))
        for p in patterns:
            if any(re.search(p, name) for name in names):
                matching[p] += 1
                by_thread[p][thread] += 1
    per_run.append(total - before)

if not total:
    sys.exit("profile.sh: no samples (did the child run?)")
per_run.sort()
print(f"{total} samples over {len(files)} runs "
      f"(per run: min {per_run[0]} / median {per_run[len(per_run) // 2]} / max {per_run[-1]})")
tables = [("leaf", leaf), ("inclusive", inclusive)]
inlined = innermost(leaf_at)
if inlined is None:
    print("\n(no addr2line or llvm-symbolizer on this host: no table by inlined function)")
else:
    by_inlined = collections.Counter(leaf_outside)
    for at, n in leaf_at.items():
        by_inlined[inlined[at]] += n
    tables.append(("leaf by innermost inlined function", by_inlined))
for title, table in tables:
    print(f"\n-- {title} share, top 30")
    for name, n in table.most_common(30):
        print(f"{100 * n / total:6.2f} %  {name[:110]}")
for pattern in patterns:
    threads = ", ".join(f"{t[1:]}: {n}" for t, n in sorted(by_thread[pattern].items())) or "-"
    print(f"\n-- samples with /{pattern}/ anywhere on the stack: "
          f"{matching[pattern]} ({100 * matching[pattern] / total:.2f} %; by thread {threads})")
' "$bin" "$(echo "$dir"/samples.*)" "$@"
