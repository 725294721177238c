#!/usr/bin/env bash
# The functions a release binary still calls out of line, reached from a
# root symbol: what inlining left behind on a hot path.
#
#   scripts/outline.sh [BINARY] [ROOT]
#
# BINARY defaults to target/release/tm-benchmark (build it with
# `benchmark/run.sh --check`); ROOT defaults to `Lockstep<E>::pair`, the
# benchmark's two-transaction pair, and matches every function whose
# demangled name ends with it. From the root the script follows every
# `call` and tail `jmp` into another function, direct or through a GOT
# slot, but only through the repo's own `tm_*` functions, and prints each
# one reached with its instruction count, its count of locked instructions
# and the caller it was first reached from, sorted by name; a last line
# totals both counts over the functions listed and gives the binary's
# `.text` size in bytes (from `readelf -S`): what an inlining change costs
# in code, to report beside the calls it removes. `[GOT]` marks a function
# some reached caller calls through a GOT slot: its body sits in another
# object file (another crate, or another codegen unit), out of the caller's
# sight.
#
# "Locked" counts instructions, not executions: every `lock`-prefixed
# instruction (the atomic read-modify-writes: `lock cmpxchg`, `lock xadd`,
# `lock inc`, ...) plus `xchg` with a memory operand, which the CPU locks
# without a prefix (a `SeqCst` store compiles to one). Each is a full
# barrier on x86-64 and takes its cache line exclusive, so the count is the
# static shape of what a hot path pays for shared-memory atomics.
#
# A position-independent binary calls another object file's function
# through `call *slot(%rip)`; `objdump` cannot name the slot's target, so the
# script reads it from the slot's `R_X86_64_RELATIVE` relocation addend
# (`readelf -r`). Indirect calls through a register (trait objects,
# closures passed as `&mut dyn FnMut`) are not followed. x86-64 only.
# Exits 2 when the binary or the root is missing, and 3 when no call in
# the disassembly parses (an `objdump` whose syntax the script does not
# know), so a wrong listing does not pass for an empty one.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=${1:-target/release/tm-benchmark}
root=${2:-'Lockstep<E>::pair'}
[ -f "$bin" ] || { echo "outline.sh: no binary at $bin" >&2; exit 2; }
# The .text section's size: readelf prints it in hex, four fields after the name.
text_hex=$(readelf -SW "$bin" | awk '{ for (i = 1; i < NF; i++) if ($i == ".text") { print $(i + 4); exit } }')
text_bytes=$(printf '%d' "0x${text_hex:-0}")

{
    readelf -rW "$bin" | awk '$3 == "R_X86_64_RELATIVE" { print "R", $1, $4 }'
    objdump -d -C --no-show-raw-insn "$bin"
} | awk -v root="$root" -v text_bytes="$text_bytes" '
    function hex(s,    n, i, c) {
        n = 0
        s = tolower(s)
        sub(/^0x/, "", s)
        for (i = 1; i <= length(s); i++) {
            c = index("0123456789abcdef", substr(s, i, 1))
            if (c == 0) break
            n = n * 16 + c - 1
        }
        return n
    }
    # Our own code: a demangled path (or trait impl) rooted in a tm_ crate.
    function ours(name) { return name ~ /^<*tm_/ }
    # Relocations first: GOT slot -> the function it points at.
    $1 == "R" { slot[hex($2)] = hex($3); next }
    # A function label: "0000000000093850 <name>:".
    /^[0-9a-f]+ <.*>:$/ {
        cur = hex($1)
        name[cur] = substr($0, index($0, "<") + 1)
        sub(/>:$/, "", name[cur])
        insns[cur] = 0
        r = length(root)
        if (length(name[cur]) >= r && substr(name[cur], length(name[cur]) - r + 1) == root)
            queue[++tail] = cur
        next
    }
    /^ *[0-9a-f]+:\t/ {
        insns[cur]++
        split($0, f, "\t")
        op = f[2]
        if (op ~ /^lock / || op ~ /^xchg[bwlq]? +[^,]*\(.*|^xchg[bwlq]? +[^,]+,.*\(/) locks[cur]++
        # Older binutils print `callq`/`jmpq`.
        if (op !~ /^(call|jmp)q? /) next
        calls++
        if (op ~ /\*0x[0-9a-f]+\(%rip\)/) {
            # Through a GOT slot: "call *0x..(%rip)   # 14a288 <...>".
            s = op
            sub(/.*# */, "", s)
            split(s, g, " ")
            if (hex(g[1]) in slot) edges[cur] = edges[cur] " " slot[hex(g[1])] "g"
        } else if (op ~ /^(call|jmp)q? +[0-9a-f]+ <[^+]*>$/) {
            # Direct, to a function start (a label without "+0x").
            split(op, g, " +")
            t = hex(g[2])
            if (t != cur) edges[cur] = edges[cur] " " t
        }
    }
    END {
        if (tail == 0) {
            print "outline.sh: no function ends with \"" root "\"" > "/dev/stderr"
            exit 2
        }
        # Every real binary calls something: none seen means this
        # objdump prints calls in a form the patterns above do not know.
        if (calls == 0) {
            print "outline.sh: no call or jmp instruction recognised in the disassembly" > "/dev/stderr"
            exit 3
        }
        for (i = 1; i <= tail; i++) seen[queue[i]] = 1
        for (head = 1; head <= tail; head++) {
            a = queue[head]
            n = split(edges[a], to, " ")
            for (j = 1; j <= n; j++) {
                t = to[j] + 0
                if (!(t in name) || !ours(name[t])) continue
                if (to[j] ~ /g$/) got[t] = 1
                if (!(t in seen)) {
                    seen[t] = 1
                    from[t] = a
                    queue[++tail] = t
                }
            }
        }
        sorter = "sort -k3"
        for (a in seen) {
            line = sprintf("%6d %4d  %s", insns[a], locks[a], name[a])
            if (a in from) line = line "  <- " name[from[a]]
            if (a in got) line = line "  [GOT]"
            print line | sorter
            total_insns += insns[a]
            total_locks += locks[a]
            functions++
        }
        close(sorter)
        printf("%6d %4d  total over %d functions (instructions, locked); .text %d bytes\n", total_insns, total_locks, functions, text_bytes)
    }'
