#!/usr/bin/env bash
# A flat per-function CPU profile of one command, for a box with no `perf`
# and no PMU (a VM without performance counters, a container without
# `perf_event_open`).
#
#   scripts/profile.sh BINARY [ARGS...]
#
# e.g. `scripts/profile.sh target/release/tm-benchmark --workload svc-read
# --seed 1 --seconds 2 --trace 0` (build it first with
# `benchmark/run.sh --check`). Run the binary itself, not `cargo run`:
# every process the command starts is sampled, and reported together.
#
# The script compiles a small sampler with `cc` into target/profile/ and
# runs the command with it in LD_PRELOAD. The sampler arms the process's
# CPU-time interval timer (ITIMER_PROF, every PROFILE_US microseconds of
# CPU, default 1000, summed over all threads; the kernel fires it at most
# once a tick, so at 250 Hz a sample is 4 ms) and records the interrupted
# program counter on each SIGPROF; at exit it writes the samples and the
# process's memory map to target/profile/samples.<pid>. Each sample is then
# placed in the object file mapped there (the binary, libc, ...) and named
# by the nearest symbol at or below it (`readelf -l` for the load segments,
# `nm` and `nm -D` for the symbols, `c++filt` to demangle; Rust's hash
# suffixes and crate hashes are dropped, so the copies of one generic
# function add up).
#
# Prints the top PROFILE_TOP (default 30) functions by share of samples,
# with the object each lives in. Time blocked (futex waits, sleeps) costs
# no CPU and takes no samples. Only a process that exits through `exit`
# writes its samples; one killed by a signal does not. Exits with the
# command's status. x86-64 and aarch64 Linux.
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: scripts/profile.sh BINARY [ARGS...]" >&2; exit 2; }
out="$(cd "$(dirname "$0")/.." && pwd)/target/profile"
mkdir -p "$out"
rm -f "$out"/samples.*

cc -O2 -shared -fPIC -o "$out/sampler.so" -x c - <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long pcs[MAX_SAMPLES];
static unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    const ucontext_t *uc = ctx;
#if defined(__x86_64__)
    unsigned long pc = uc->uc_mcontext.gregs[REG_RIP];
#else
    unsigned long pc = uc->uc_mcontext.pc;
#endif
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) pcs[i] = pc;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    const char *us = getenv("PROFILE_US");
    long period = us ? atol(us) : 1000;
    struct itimerval it = {{period / 1000000, period % 1000000}, {period / 1000000, period % 1000000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s/samples.%d", getenv("PROFILE_DIR"), (int)getpid());
    FILE *f = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!f || !maps) return;
    while (fgets(line, sizeof line, maps)) fprintf(f, "map %s", line);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++) fprintf(f, "pc %lx\n", pcs[i]);
    fclose(maps);
    fclose(f);
}
EOF

status=0
PROFILE_DIR="$out" LD_PRELOAD="$out/sampler.so" "$@" || status=$?

# The hex parser awk lacks (mawk has no strtonum); exact below 2^53.
hex='function hex(s,    n, i, c) {
    n = 0
    s = tolower(s)
    sub(/^0x/, "", s)
    for (i = 1; i <= length(s); i++) {
        c = index("0123456789abcdef", substr(s, i, 1))
        if (c == 0) break
        n = n * 16 + c - 1
    }
    return n
}'

# Each sample as "object<TAB>file offset<TAB>count", per process map.
resolved="$out/resolved.tsv"
for f in "$out"/samples.*; do
    [ -e "$f" ] || continue
    awk "$hex"'
        $1 == "map" {
            split($2, r, "-")
            m++
            lo[m] = hex(r[1]); hi[m] = hex(r[2]); off[m] = hex($4)
            path[m] = $7 == "" ? "[anon]" : $7
            if ($8 != "") path[m] = "[deleted]"
            next
        }
        $1 == "pc" { n[$2]++ }
        END {
            for (pc in n) {
                a = hex(pc)
                obj = "[unmapped]"; o = 0
                for (i = 1; i <= m; i++)
                    if (lo[i] <= a && a < hi[i]) { obj = path[i]; o = a - lo[i] + off[i]; break }
                printf "%s\t%.0f\t%d\n", obj, o, n[pc]
            }
        }' "$f"
done > "$resolved"
[ -s "$resolved" ] || { echo "profile.sh: no samples were written" >&2; exit "$((status ? status : 1))"; }

# Each object file's load segments ("S" lines) and text symbols ("Y" lines,
# sorted by address), ahead of the samples they name.
cut -f1 "$resolved" | sort -u | while IFS= read -r obj; do
    [ -f "$obj" ] || continue
    readelf -lW "$obj" 2>/dev/null | awk -v o="$obj" '$1 == "LOAD" { print "S\t" o "\t" $2 "\t" $3 "\t" $5 }'
    { nm --defined-only "$obj" 2>/dev/null || true; nm -D --defined-only "$obj" 2>/dev/null || true; } |
        awk -v o="$obj" '$2 ~ /^[tTwWiI]$/ && NF == 3 { print "Y\t" o "\t" $1 "\t" $3 }' | sort -u
done | cat - "$resolved" | awk -F'\t' "$hex"'
    $1 == "S" { s = ++segs[$2]; soff[$2, s] = hex($3); svad[$2, s] = hex($4); ssz[$2, s] = hex($5); next }
    $1 == "Y" { y = ++syms[$2]; yad[$2, y] = hex($3); ynm[$2, y] = $4; next }
    {
        obj = $1; o = $2; name = "?"
        for (s = 1; s <= segs[obj]; s++)
            if (soff[obj, s] <= o && o < soff[obj, s] + ssz[obj, s]) {
                v = o - soff[obj, s] + svad[obj, s]
                lo = 1; hi = syms[obj]
                while (lo <= hi) {
                    mid = int((lo + hi) / 2)
                    if (yad[obj, mid] <= v) { name = ynm[obj, mid]; lo = mid + 1 } else hi = mid - 1
                }
                break
            }
        base = obj; sub(/.*\//, "", base)
        print $3 "\t" name "\t" base
    }' | c++filt | sed -E 's/::h[0-9a-f]{16}\t/\t/; s/\[[0-9a-f]{16}\]//g' |
    awk -F'\t' '{ n[$2 "\t" $3] += $1 } END { for (k in n) print n[k] "\t" k }' | sort -rn > "$out/profile.tsv"

total=$(awk -F'\t' '{ t += $3 } END { print t }' "$resolved")
echo "$total samples, one per ${PROFILE_US:-1000} us of CPU or per kernel tick, whichever is longer"
head -n "${PROFILE_TOP:-30}" "$out/profile.tsv" |
    awk -F'\t' -v t="$total" '{ printf "%6.2f %%  %7d  %s  [%s]\n", 100 * $1 / t, $1, $2, $3 }'
exit "$status"
