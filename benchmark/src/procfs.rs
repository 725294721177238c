//! OS accounting for the benchmark: CPU pinning, process CPU time, and
//! per-thread `/proc` counters grouped by thread name.
//!
//! Totals come from `CLOCK_PROCESS_CPUTIME_ID`, which also covers threads
//! that have already exited (the harness's phase workers are joined before
//! the caller gets control back) and does not lag by a scheduler tick the
//! way a *running* thread's `schedstat` does. The per-thread split comes
//! from `/proc/self/task/*`, so take the closing [`snapshot`] while the
//! threads of interest are still alive.

use std::collections::BTreeMap;
use std::fs;

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

// std already links libc; these are the only three symbols the benchmark
// needs from it.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// A CPU affinity mask of the calling thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuMask([u64; CPU_SET_WORDS]);

impl CpuMask {
    /// The calling thread's current mask.
    pub fn current() -> Option<Self> {
        let mut words = [0u64; CPU_SET_WORDS];
        // SAFETY: `words` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&words), words.as_mut_ptr()) };
        (rc == 0).then_some(Self(words))
    }

    /// The CPUs in the mask, ascending.
    pub fn cpus(&self) -> Vec<u32> {
        (0..CPU_SET_WORDS as u32 * 64)
            .filter(|cpu| self.0[*cpu as usize / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// A mask holding only `cpu`.
    pub fn single(cpu: u32) -> Self {
        let mut words = [0u64; CPU_SET_WORDS];
        words[cpu as usize / 64] = 1 << (cpu % 64);
        Self(words)
    }

    /// Make this the calling thread's mask. Threads spawned afterwards
    /// inherit it; threads that already exist keep theirs.
    pub fn apply(&self) -> bool {
        // SAFETY: `self.0` is a live buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }
}

/// Pin the calling thread to the highest CPU of its mask. Returns that CPU.
pub fn pin_to_highest_cpu() -> Option<u32> {
    let cpu = *CpuMask::current()?.cpus().last()?;
    CpuMask::single(cpu).apply().then_some(cpu)
}

/// CPU time consumed by every thread of this process so far, exited
/// threads included, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Counters of one thread (absolute in a [`Snapshot`], differences in a
/// [`Delta`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadAcct {
    /// Thread name as the kernel reports it: at most 15 bytes.
    pub comm: String,
    /// Time on a CPU, ns (`schedstat` field 1).
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU, ns (`schedstat` field 2).
    pub wait_ns: u64,
    /// Voluntary plus involuntary context switches (`status`).
    pub ctx_switches: u64,
}

/// Per-thread counters and process I/O syscall counts at one instant.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    threads: BTreeMap<u32, ThreadAcct>,
    rw_syscalls: u64,
}

/// Read the counters of every live thread of this process.
pub fn snapshot() -> Snapshot {
    let mut threads = BTreeMap::new();
    if let Ok(dir) = fs::read_dir("/proc/self/task") {
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let path = entry.path();
            // A thread can exit between the listing and these reads.
            let (Ok(comm), Ok(sched), Ok(status)) = (
                fs::read_to_string(path.join("comm")),
                fs::read_to_string(path.join("schedstat")),
                fs::read_to_string(path.join("status")),
            ) else {
                continue;
            };
            let Some((run_ns, wait_ns)) = parse_schedstat(&sched) else {
                continue;
            };
            threads.insert(
                tid,
                ThreadAcct {
                    comm: comm.trim_end().to_string(),
                    run_ns,
                    wait_ns,
                    ctx_switches: parse_ctx_switches(&status),
                },
            );
        }
    }
    let rw_syscalls = fs::read_to_string("/proc/self/io")
        .map(|io| parse_rw_syscalls(&io))
        .unwrap_or(0);
    Snapshot {
        threads,
        rw_syscalls,
    }
}

impl Snapshot {
    /// What happened between `earlier` and `self`. A thread absent from
    /// `earlier` started in between and counts in full; a thread absent
    /// from `self` exited and is lost, so snapshot before threads exit.
    pub fn since(&self, earlier: &Snapshot) -> Delta {
        let threads = self
            .threads
            .iter()
            .map(|(tid, now)| {
                let zero = ThreadAcct::default();
                let then = earlier.threads.get(tid).unwrap_or(&zero);
                ThreadAcct {
                    comm: now.comm.clone(),
                    run_ns: now.run_ns.saturating_sub(then.run_ns),
                    wait_ns: now.wait_ns.saturating_sub(then.wait_ns),
                    ctx_switches: now.ctx_switches.saturating_sub(then.ctx_switches),
                }
            })
            .collect();
        Delta {
            threads,
            rw_syscalls: self.rw_syscalls.saturating_sub(earlier.rw_syscalls),
        }
    }
}

/// Counter differences between two [`Snapshot`]s.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    threads: Vec<ThreadAcct>,
    /// `read`-like plus `write`-like syscalls (`syscr + syscw`).
    pub rw_syscalls: u64,
}

impl Delta {
    /// Sum of `field` over the threads whose name starts with `prefix`.
    /// `prefix` is cut to the kernel's 15 bytes first, so
    /// `"tm-server-router"` finds the thread that reads back as
    /// `tm-server-route`.
    pub fn sum(&self, prefix: &str, field: fn(&ThreadAcct) -> u64) -> u64 {
        self.threads
            .iter()
            .filter(|t| comm_matches(&t.comm, prefix))
            .map(field)
            .sum()
    }
}

/// The kernel keeps 15 bytes of a thread name.
const COMM_LEN: usize = 15;

fn comm_matches(comm: &str, prefix: &str) -> bool {
    let cut = prefix
        .char_indices()
        .map(|(i, c)| i + c.len_utf8())
        .take_while(|end| *end <= COMM_LEN)
        .last()
        .unwrap_or(0);
    comm.starts_with(&prefix[..cut])
}

fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_ascii_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((run, wait))
}

/// The numeric value of a `Key:   123 kB`-style line of a `status` file.
fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

fn parse_ctx_switches(status: &str) -> u64 {
    status_field(status, "voluntary_ctxt_switches").unwrap_or(0)
        + status_field(status, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

fn parse_rw_syscalls(io: &str) -> u64 {
    status_field(io, "syscr").unwrap_or(0) + status_field(io, "syscw").unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .unwrap_or(0)
}

/// Facts about the machine and build that every results file records.
pub fn environment() -> Vec<(&'static str, String)> {
    let first_line = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.lines().next().unwrap_or("").to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    vec![
        (
            "nproc",
            CpuMask::current().map_or(0, |m| m.cpus().len()).to_string(),
        ),
        (
            "kernel",
            fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
        ),
        ("rustc", first_line("rustc", &["-V"])),
        ("commit", first_line("git", &["rev-parse", "HEAD"])),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_takes_the_first_two_fields() {
        assert_eq!(parse_schedstat("1234 567 8\n"), Some((1234, 567)));
        assert_eq!(parse_schedstat("1234\n"), None);
        assert_eq!(parse_schedstat("x y z"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\ttm-benchmark\nVmHWM:\t    1576 kB\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(1576));
        assert_eq!(parse_ctx_switches(status), 15);
        // A key that is a prefix of another line's key must not match it.
        assert_eq!(status_field(status, "voluntary_ctxt"), None);
        assert_eq!(status_field(status, "Missing"), None);
    }

    #[test]
    fn io_sums_read_and_write_syscalls() {
        let io = "rchar: 3980\nwchar: 0\nsyscr: 9\nsyscw: 4\nread_bytes: 0\n";
        assert_eq!(parse_rw_syscalls(io), 13);
    }

    #[test]
    fn comm_prefix_is_cut_to_fifteen_bytes() {
        assert!(comm_matches("tm-server-route", "tm-server-router"));
        assert!(comm_matches("tm-server-shard", "tm-server-shard-"));
        assert!(comm_matches("tm-server-tcp-r", "tm-server-tcp-"));
        assert!(!comm_matches("tm-server-shard", "tm-server-router"));
        assert!(comm_matches("anything", ""));
    }

    #[test]
    fn mask_arithmetic() {
        assert_eq!(CpuMask::single(65).cpus(), [65]);
        let mut two = CpuMask::single(3);
        two.0[1] |= 1 << 6;
        assert_eq!(two.cpus(), [3, 70]);
        assert!(CpuMask([0; CPU_SET_WORDS]).cpus().is_empty());
    }

    #[test]
    fn delta_attributes_cpu_to_a_named_live_thread() {
        let before = snapshot();
        let cpu_before = process_cpu_ns();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::Builder::new()
            .name("procfs-test-burner-with-a-long-name".into())
            .spawn(move || {
                let t0 = std::time::Instant::now();
                let mut x = 0u64;
                while t0.elapsed().as_millis() < 30 {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                done_tx.send(()).expect("main thread waits");
                // Stay alive until the closing snapshot has been taken.
                let _ = go_rx.recv();
            })
            .expect("spawn");
        done_rx.recv().expect("worker finished burning");
        let delta = snapshot().since(&before);
        let cpu = process_cpu_ns() - cpu_before;
        go_tx.send(()).expect("worker waits");
        worker.join().expect("worker exits cleanly");

        let burned = delta.sum("procfs-test-burner-with-a-long-name", |t| t.run_ns);
        // Other tests share the CPUs, so only a floor can be asserted.
        assert!(
            burned >= 2_000_000,
            "thread spun for 30 ms, saw {burned} ns"
        );
        assert!(cpu >= burned, "the process total covers every thread");
        assert_eq!(delta.sum("no-such-thread", |t| t.run_ns), 0);
    }

    #[test]
    fn peak_rss_and_environment_are_reported() {
        assert!(peak_rss_kb() > 0);
        let env = environment();
        let nproc: u32 = env[0].1.parse().expect("nproc is a number");
        assert!(nproc >= 1);
    }
}
