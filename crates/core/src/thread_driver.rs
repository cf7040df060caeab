//! Real-thread execution of the Mitos runtime.
//!
//! The bag operator hosts and control-flow managers are message-driven
//! state machines (see [`crate::worker`]); this driver runs one worker per
//! OS thread with std channels as the transport — the same code that
//! the discrete-event simulator drives, now under genuine concurrency and
//! OS scheduling nondeterminism. Integration tests assert that results
//! equal the simulator's and the reference interpreter's.
//!
//! Termination uses in-flight message counting: every send increments a
//! shared counter before the message enters a channel and the receiver
//! decrements it only after fully processing the message (including any
//! sends that processing performed). Delayed deliveries (relay
//! retransmission timers, fault-injected duplicate/reorder copies) are
//! registered in a shared timer heap — counted as in flight at
//! registration time and serviced by the monitor loop — so a zero counter
//! means nothing is pending anywhere: no channel message, no timer. The
//! monitor then stops the threads, each thread hands its worker back
//! through `join`, and `Job::finish` ([`crate::engine::Job`]) judges the
//! end exactly as it does for the simulator.
//!
//! Fault injection ([`crate::rt::FaultPlan`]) is applied send-side: every
//! remote send consults the same pure per-link verdict function the
//! simulator uses (seed × link × per-link send index), so a plan's
//! drop/duplicate/reorder schedule is deterministic here too — though the
//! *interleaving* under real threads is not. Partition windows are
//! evaluated against wall-clock nanoseconds since engine start. Machine
//! pause windows and slowdowns are simulator-only refinements (real
//! threads have no virtual clock to scale) and are ignored here.

use crate::engine::{DriverEnd, EngineResult, Job};
use crate::rt::{EngineConfig, Msg, Net, RuntimeError, Verdict};
use crate::worker::Worker;
use mitos_fs::InMemoryFs;
use mitos_ir::nir::FuncIr;
use mitos_sim::SimReport;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

enum TMsg {
    M(Msg),
    Stop,
}

/// Pending delayed deliveries: `(due_ns, destination, message)`. Each
/// entry was counted in `inflight` when registered; the monitor loop
/// moves due entries into the destination channel without re-counting.
type TimerHeap = Mutex<Vec<(u64, u16, Msg)>>;

/// Locks the timer heap, recovering a poisoned guard: a panic resurfaces
/// at `join`, and every critical section leaves the heap consistent.
fn lock(timers: &TimerHeap) -> MutexGuard<'_, Vec<(u64, u16, Msg)>> {
    timers.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One channel per machine (each receiver lives in its worker thread),
/// and each inbox's queue depth for the monitor's sample, since std's
/// `Receiver` has no `len()`: up before every push, down on every take.
struct Inboxes {
    senders: Vec<Sender<TMsg>>,
    depths: Vec<AtomicUsize>,
}

impl Inboxes {
    /// Pushes a message already counted in `inflight`. A send can only
    /// fail after `Stop`, when delivery no longer matters.
    fn push(&self, machine: u16, msg: Msg, inflight: &AtomicI64) {
        let depth = &self.depths[machine as usize];
        depth.fetch_add(1, Ordering::Relaxed);
        if self.senders[machine as usize].send(TMsg::M(msg)).is_err() {
            depth.fetch_sub(1, Ordering::Relaxed);
            inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Shared fault-injection state for a threaded run (present only when the
/// plan has network faults). Counters mirror the simulator's
/// [`SimReport`] fault fields.
struct ThreadFaults {
    plan: crate::rt::FaultPlan,
    /// Per-link physical send counters, indexed `src * machines + dst`;
    /// feeds the pure verdict function so retransmits get fresh verdicts.
    link_seq: Vec<AtomicU64>,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
}

struct ThreadNet<'a> {
    /// The sending machine (fault verdicts are per directed link).
    machine: u16,
    inboxes: &'a Inboxes,
    inflight: &'a AtomicI64,
    timers: &'a TimerHeap,
    faults: Option<&'a ThreadFaults>,
    /// Engine start; trace timestamps are monotonic ns since this point.
    epoch: Instant,
}

impl Net for ThreadNet<'_> {
    fn send(&mut self, machine: u16, msg: Msg, _bytes: u64) {
        if machine != self.machine {
            if let Some(f) = self.faults {
                let now = self.epoch.elapsed().as_nanos() as u64;
                let idx = self.machine as usize * self.inboxes.senders.len() + machine as usize;
                let k = f.link_seq[idx].fetch_add(1, Ordering::Relaxed);
                if f.plan.partitioned(self.machine, machine, now) {
                    f.dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                match f.plan.verdict(self.machine, machine, k) {
                    Verdict::Deliver => {}
                    Verdict::Drop => {
                        f.dropped.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Verdict::Duplicate { extra_delay_ns } => {
                        f.duplicated.fetch_add(1, Ordering::Relaxed);
                        self.timer(extra_delay_ns, machine, msg.clone());
                    }
                    Verdict::Reorder { extra_delay_ns } => {
                        f.reordered.fetch_add(1, Ordering::Relaxed);
                        self.timer(extra_delay_ns, machine, msg);
                        return;
                    }
                }
            }
        }
        self.inflight.fetch_add(1, Ordering::SeqCst);
        self.inboxes.push(machine, msg, self.inflight);
    }

    fn charge(&mut self, _ns: u64) {
        // Real time is real; virtual charging is a no-op here.
    }

    fn schedule(&mut self, _delay_ns: u64, machine: u16, msg: Msg) {
        // Disk delays are not simulated on real threads; deliver directly.
        self.send(machine, msg, 0);
    }

    fn timer(&mut self, delay_ns: u64, machine: u16, msg: Msg) {
        // Genuinely delayed (unlike `schedule`): relay retransmission
        // backoff and fault-injected duplicate/reorder copies rely on the
        // delay actually elapsing. Counted as in flight now so quiescence
        // detection waits for pending timers.
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let due = self.epoch.elapsed().as_nanos() as u64 + delay_ns;
        lock(self.timers).push((due, machine, msg));
    }

    fn now_ns(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Runs a compiled SSA program on real threads (one worker thread per
/// simulated machine). File effects land in `fs`; `output(..)` collections
/// are extracted into the result. The returned `sim` report carries the
/// measured **wall-clock** duration in `end_time` (nanoseconds, same unit
/// the simulator uses for virtual time — see [`crate::rt::NS_PER_MS`])
/// and the send-side fault layer's counters; the other simulator counters
/// stay zero.
pub fn run_threads(
    func: &FuncIr,
    fs: &InMemoryFs,
    engine: EngineConfig,
    machines: u16,
) -> Result<EngineResult, RuntimeError> {
    run_threads_live(func, fs, engine, machines, &mut |_| {})
}

/// Like [`run_threads`], with live telemetry: the monitor loop samples the
/// shared [`crate::obs::live::TelemetryHub`] every
/// [`EngineConfig::sample_interval_ns`] wall-clock nanoseconds (invoking
/// `on_snapshot` per [`crate::obs::live::Snapshot`]) and, when
/// [`EngineConfig::stall_deadline_ns`] is non-zero, aborts the run if no
/// worker handles a message for that long — returning a
/// [`RuntimeError`] carrying a structured
/// [`crate::obs::watchdog::StallReport`] naming the blocked operators and
/// what each awaits.
pub fn run_threads_live(
    func: &FuncIr,
    fs: &InMemoryFs,
    engine: EngineConfig,
    machines: u16,
    on_snapshot: &mut dyn FnMut(&crate::obs::live::Snapshot),
) -> Result<EngineResult, RuntimeError> {
    let (mut job, workers) = Job::new(func, fs, engine, machines)?;
    let config = &job.shared().config;
    let epoch = Instant::now();
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..machines).map(|_| channel()).unzip();
    let inboxes = Inboxes {
        senders,
        depths: (0..machines).map(|_| AtomicUsize::new(0)).collect(),
    };
    let inflight = AtomicI64::new(0);
    let timers: TimerHeap = Mutex::new(Vec::new());
    let faults: Option<ThreadFaults> = config.faults.net_faults_active().then(|| ThreadFaults {
        plan: config.faults.clone(),
        link_seq: (0..machines as usize * machines as usize)
            .map(|_| AtomicU64::new(0))
            .collect(),
        dropped: AtomicU64::new(0),
        duplicated: AtomicU64::new(0),
        reordered: AtomicU64::new(0),
    });
    // Per worker, `Worker::idle`: the program exited and every host is idle.
    let idle_flags: Vec<AtomicBool> = (0..machines).map(|_| AtomicBool::new(false)).collect();
    // Set by the first worker that fails; the monitor then drains.
    let failed = AtomicBool::new(false);

    // Bootstrap.
    for m in 0..machines {
        inflight.fetch_add(1, Ordering::SeqCst);
        inboxes.push(m, Msg::Start, &inflight);
    }

    let interval = config.sample_interval_ns;
    let deadline = config.stall_deadline_ns;
    let mut next_sample = interval;
    // Wall-clock position of the previous queue-depth sample, so each
    // monitor wake-up charges exactly the elapsed interval to the flow
    // registry's backpressure accounting.
    let mut last_flow_sample: u64 = 0;
    let mut depths: Vec<usize> = vec![0; machines as usize];
    // `(deadline_ns, idle_ns)` when the stall watchdog fires.
    let mut watchdog: Option<(u64, u64)> = None;

    let workers: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(m, (mut worker, receiver))| {
                let mut net = ThreadNet {
                    machine: m as u16,
                    inboxes: &inboxes,
                    inflight: &inflight,
                    timers: &timers,
                    faults: faults.as_ref(),
                    epoch,
                };
                let idle = &idle_flags[m];
                let failed = &failed;
                scope.spawn(move || {
                    for tmsg in receiver.iter() {
                        let TMsg::M(msg) = tmsg else { break };
                        net.inboxes.depths[m].fetch_sub(1, Ordering::Relaxed);
                        worker.handle(msg, &mut net);
                        if worker.error.is_some() {
                            failed.store(true, Ordering::SeqCst);
                        }
                        idle.store(worker.idle(), Ordering::SeqCst);
                        net.inflight.fetch_sub(1, Ordering::SeqCst);
                    }
                    worker
                })
            })
            .collect();

        // Quiescence detection loop (also the telemetry sampler and the
        // stall watchdog: it already wakes every 200µs anyway).
        loop {
            std::thread::sleep(std::time::Duration::from_micros(200));
            let now = epoch.elapsed().as_nanos() as u64;
            {
                // Service due timers: move them into their destination
                // inboxes. They were counted in `inflight` at
                // registration, so no re-count here.
                let mut heap = lock(&timers);
                let mut i = 0;
                while i < heap.len() {
                    if heap[i].0 <= now {
                        let (_, machine, msg) = heap.swap_remove(i);
                        inboxes.push(machine, msg, &inflight);
                    } else {
                        i += 1;
                    }
                }
            }
            // Queue-depth and backpressure sampling on every wake-up: the
            // monitor already runs anyway, and the registry never touches
            // worker state, so this observes without perturbing.
            for (d, depth) in depths.iter_mut().zip(&inboxes.depths) {
                *d = depth.load(Ordering::Relaxed);
            }
            job.shared()
                .flow
                .sample_queues(&depths, now.saturating_sub(last_flow_sample));
            last_flow_sample = now;
            if interval > 0 && now >= next_sample {
                job.sample(now, on_snapshot);
                while next_sample <= now {
                    next_sample += interval;
                }
            }
            if failed.load(Ordering::SeqCst) {
                // Drain: errored workers discard messages; wait for
                // quiescence, then stop.
                if inflight.load(Ordering::SeqCst) == 0 {
                    break;
                }
                continue;
            }
            if deadline > 0 {
                // Per-worker: a worker that exited with all hosts idle is
                // done, not stalled; any other worker that hasn't handled
                // a message within the deadline trips the watchdog.
                let worst = (0..machines)
                    .filter(|&m| !idle_flags[m as usize].load(Ordering::SeqCst))
                    .map(|m| now.saturating_sub(job.shared().flight.last_ns(m)))
                    .max()
                    .unwrap_or(0);
                if worst > deadline {
                    watchdog = Some((deadline, worst));
                    break;
                }
            }
            if inflight.load(Ordering::SeqCst) != 0 {
                continue;
            }
            let all_idle = idle_flags.iter().all(|f| f.load(Ordering::SeqCst));
            // Nothing in flight anywhere — no channel message, no pending
            // timer. Either the run is done, or the program has not exited
            // or hosts still hold state: a genuine deadlock (e.g. a dropped
            // decision broadcast with recovery off). With a stall deadline
            // armed, let the watchdog wait a deadlock out (its timing is
            // part of the contract); otherwise stop now rather than spin
            // forever, and let `Job::finish` diagnose the returned workers.
            if all_idle || deadline == 0 {
                break;
            }
        }
        for s in &inboxes.senders {
            let _ = s.send(TMsg::Stop);
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });

    // Unless the watchdog fired, the monitor stopped on a zero in-flight
    // count, so every inbox is empty: a missed increment wraps, a missed
    // decrement stays > 0. (Checked after the join: a panic inside the
    // scope would wait forever on workers that never got `Stop`.)
    debug_assert!(
        watchdog.is_some()
            || inboxes
                .depths
                .iter()
                .all(|d| d.load(Ordering::Relaxed) == 0),
        "inbox depths {:?} at quiescence",
        inboxes.depths
    );
    // One clock source end to end: the same epoch that timestamps trace
    // events also yields the reported duration, in nanoseconds like the
    // simulator's virtual end_time.
    let end_time = epoch.elapsed().as_nanos() as u64;
    let [faults_dropped, faults_duplicated, faults_reordered] =
        faults.as_ref().map_or([0; 3], |f| {
            [&f.dropped, &f.duplicated, &f.reordered].map(|c| c.load(Ordering::Relaxed))
        });
    let sim = SimReport {
        end_time,
        faults_dropped,
        faults_duplicated,
        faults_reordered,
        ..SimReport::default()
    };
    job.finish(workers, DriverEnd { sim, watchdog })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitos_ir::{interpret, InterpConfig};
    use mitos_lang::Value;

    fn check_threads(src: &str, machines: u16, setup: impl Fn(&InMemoryFs)) {
        let func = mitos_ir::compile_str(src).unwrap();
        let ref_fs = InMemoryFs::new();
        setup(&ref_fs);
        let reference = interpret(&func, &ref_fs, InterpConfig::default()).unwrap();
        for round in 0..3 {
            let fs = InMemoryFs::new();
            setup(&fs);
            let r = run_threads(&func, &fs, EngineConfig::default(), machines)
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(r.outputs, reference.canonical_outputs(), "round {round}");
            assert_eq!(r.path, reference.path, "round {round}");
            assert_eq!(fs.snapshot(), ref_fs.snapshot(), "round {round}");
        }
    }

    #[test]
    fn straight_line_on_threads() {
        check_threads(
            "b = bag(1, 2, 3).map(x => x * 2); output(b.sum(), \"s\");",
            3,
            |_| {},
        );
    }

    #[test]
    fn loops_with_branches_on_threads() {
        check_threads(
            r#"
            evens = 0;
            odds = 0;
            for i = 1 to 9 {
                if (i % 2 == 0) { evens = evens + i; } else { odds = odds + i; }
            }
            output(evens, "e");
            output(odds, "o");
            "#,
            4,
            |_| {},
        );
    }

    #[test]
    fn visit_count_on_threads() {
        check_threads(
            r#"
            yesterday = empty;
            day = 1;
            do {
                visits = readFile("log" + day);
                counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b);
                if (day != 1) {
                    diffs = (counts join yesterday).map(t => abs(t[1] - t[2]));
                    writeFile(diffs.sum(), "diff" + day);
                }
                yesterday = counts;
                day = day + 1;
            } while (day <= 4);
            "#,
            3,
            |fs| {
                for d in 1..=4i64 {
                    fs.put(
                        format!("log{d}"),
                        (0..40).map(|i| Value::I64((i * d) % 7)).collect::<Vec<_>>(),
                    );
                }
            },
        );
    }

    #[test]
    fn nested_loops_on_threads() {
        check_threads(
            r#"
            total = 0;
            i = 0;
            while (i < 3) {
                x = bag((1, i), (2, i * 2));
                j = 0;
                while (j < 2) {
                    y = bag((1, j));
                    total = total + (x join y).count();
                    j = j + 1;
                }
                i = i + 1;
            }
            output(total, "t");
            "#,
            2,
            |_| {},
        );
    }

    #[test]
    fn runtime_errors_surface_from_threads() {
        let func = mitos_ir::compile_str("b = readFile(\"nope\"); output(b, \"b\");").unwrap();
        let fs = InMemoryFs::new();
        let err = run_threads(&func, &fs, EngineConfig::default(), 2).unwrap_err();
        assert!(err.message.contains("nope"), "{err}");
    }
}
