//! Host speed: the CPU time of a fixed reference kernel, sampled in the
//! driver while the server is idle.
//!
//! On a shared host the same deterministic work costs more CPU time
//! while neighbours load the physical cores: a `load-scaled` chain on
//! one model read 190–570 ms of server CPU within one run, and the
//! host's speed drifts from run to run as well. The reference kernel
//! slows down with the host. The window pauses after every slice for a
//! few samples. On `load-scaled` and `whatif-warm` each slice's CPU is
//! scaled by [`NOMINAL_MS`] over the mean of the samples just before and
//! just after it (NOTES.md, *Host speed*). The kernel is a unique-table workload like the BDD manager's hash-consing
//! (random probes into an 8 MiB open-addressed table over a 7 MiB node
//! arena), written here so that no change to the program under test can
//! move it. Its buffers are allocated once and reused: a fresh
//! allocation page-faults or not depending on the allocator's state,
//! which made single samples bimodal (20 ms against 50 ms).

use std::sync::Mutex;

/// The reference kernel's CPU time in ms on the nominal host. A scaled
/// figure reads as if the host ran the kernel in this long.
pub const NOMINAL_MS: f64 = 40.0;

/// Slots of the kernel's open-addressed table (u32 node ids: 8 MiB).
const SLOTS: usize = 1 << 21;
/// Nodes the kernel hash-conses per run.
const INSERTS: u64 = 600_000;

/// The kernel's table and node arena, allocated once and reused.
pub struct Buffers {
    table: Vec<u32>,
    nodes: Vec<(u32, u32, u32)>,
}

impl Buffers {
    fn new() -> Buffers {
        Buffers {
            table: vec![0u32; SLOTS],
            nodes: Vec::with_capacity(INSERTS as usize + 2),
        }
    }
}

/// The buffers every sample reuses, allocated by the first.
static BUFFERS: Mutex<Option<Buffers>> = Mutex::new(None);

/// One run of the reference kernel: clears the table and the arena, then
/// hash-conses [`INSERTS`] pseudo-random `(var, lo, hi)` triples over the
/// nodes made so far. Returns a checksum of the slots it settled on, a
/// fixed value (see the tests), so the work cannot be optimised away.
pub fn reference_kernel(buffers: &mut Buffers) -> u64 {
    let Buffers { table, nodes } = buffers;
    table.fill(0);
    nodes.clear();
    nodes.extend([(0, 0, 0), (0, 1, 1)]);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut checksum = 0u64;
    for i in 0..INSERTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let n = nodes.len() as u64;
        let node = ((i % 997) as u32, (x % n) as u32, ((x >> 20) % n) as u32);
        let hash = u64::from(node.0).wrapping_mul(0x9E37_79B9)
            ^ u64::from(node.1).wrapping_mul(0x85EB_CA6B)
            ^ u64::from(node.2).wrapping_mul(0xC2B2_AE35);
        let mut slot = hash as usize & (SLOTS - 1);
        loop {
            let id = table[slot];
            if id == 0 {
                table[slot] = nodes.len() as u32;
                nodes.push(node);
                break;
            }
            if nodes[id as usize] == node {
                break;
            }
            slot = (slot + 1) & (SLOTS - 1);
        }
        checksum = checksum.wrapping_mul(31) ^ slot as u64;
    }
    checksum
}

/// Time on CPU of the calling thread in ms, from its `schedstat`. The
/// kernel brings a thread's time up to date when the thread sleeps; read
/// while it runs, the time lags by up to a scheduler tick (4 ms at 250 Hz).
fn thread_cpu_ms() -> Result<f64, String> {
    std::thread::sleep(std::time::Duration::from_micros(100));
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("/proc/thread-self/schedstat: {e}"))?;
    crate::server::schedstat_ns(&text)
        .map(|ns| ns as f64 / 1e6)
        .ok_or_else(|| format!("unreadable schedstat `{}`", text.trim()))
}

/// Runs the reference kernel once; returns the CPU time the calling
/// thread spent on it, in ms. The first call also allocates the buffers,
/// outside the timing.
pub fn sample() -> Result<f64, String> {
    let mut guard = BUFFERS.lock().unwrap_or_else(|e| e.into_inner());
    let buffers = guard.get_or_insert_with(Buffers::new);
    let before = thread_cpu_ms()?;
    std::hint::black_box(reference_kernel(buffers));
    Ok(thread_cpu_ms()? - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_fixed_work() {
        let mut buffers = Buffers::new();
        let first = reference_kernel(&mut buffers);
        assert_eq!(first, reference_kernel(&mut buffers));
        assert_eq!(first, reference_kernel(&mut Buffers::new()));
    }

    #[test]
    fn samples_read_this_threads_cpu() {
        let ms = sample().expect("schedstat is readable");
        assert!(ms > 0.0 && ms < 10_000.0, "{ms}");
    }
}
