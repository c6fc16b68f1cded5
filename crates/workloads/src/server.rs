//! The multithreaded network server of the Figure 9 DDT experiment.
//!
//! §4.2: "in the case of a multithreaded Apache web server, threads
//! independently serve web requests, and dependency occurs only when two
//! threads read from and write to the same memory page." §5.4: "We vary
//! the number of threads and measure the time for the server to handle
//! one hundred requests."
//!
//! Structure: `main` spawns a pool of worker threads and waits. Each
//! worker loops: receive a request (blocking on simulated network
//! latency, which is where thread-level I/O parallelism comes from),
//! compute on a *private* per-thread buffer, and every
//! `shared_every`-th request append to a **shared** log slot and update
//! shared statistics under a lock — the cross-thread page writes that
//! drive the DDT's dependency logging and SavePage checkpoints.

/// Server workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerParams {
    /// Worker threads in the pool (Figure 9 sweeps 1…10).
    pub threads: u32,
    /// LCG iterations of per-request compute.
    pub work: u32,
    /// Every n-th request touches the shared log/stats pages.
    pub shared_every: u32,
    /// Shared log slots (spread over `slots/8` pages).
    pub slots: u32,
}

impl Default for ServerParams {
    fn default() -> ServerParams {
        ServerParams {
            threads: 4,
            work: 1200,
            shared_every: 8,
            slots: 32,
        }
    }
}

/// Maximum worker threads the generated image supports (private-buffer
/// sizing).
pub const MAX_THREADS: u32 = 16;

/// Generates the guest assembly for the server.
pub fn source(p: &ServerParams) -> String {
    assert!(
        p.threads >= 1 && p.threads <= MAX_THREADS,
        "1..=16 threads supported"
    );
    let slot_stride = 512u32; // 8 slots per 4 KB page
    format!(
        r#"
# multithreaded server: {threads} workers, work={work}, share 1/{shared_every}
main:   li   s0, {threads}
        li   s1, 0
spawn:  li   r2, 16             # THREAD_SPAWN(worker, tid)
        la   r4, worker
        move r5, s1
        syscall
        addi s1, s1, 1
        bne  s1, s0, spawn
wait:   la   t0, done_count
        lw   t1, 0(t0)
        li   t2, {threads}
        beq  t1, t2, fin
        li   r2, 18             # YIELD
        syscall
        b    wait
fin:    la   t0, stats
        lw   r4, 0(t0)
        li   r2, 2              # print processed count
        syscall
        halt

worker: move s7, r4             # worker index (private buffer selector)
        li   s6, 0              # local processed counter
        li   s5, 0              # local shared-batch counter
        # private buffer base = privbuf + tid * 4096
        li   t0, 4096
        mul  t0, s7, t0
        la   t1, privbuf
        add  s4, t1, t0
wloop:  li   r2, 32             # NET_RECV
        syscall
        li   t0, -1
        beq  r2, t0, wdone
        move s0, r2             # request id
        # per-request compute: LCG chain over the private buffer
        la   t0, config
        lw   t1, 0(t0)          # work amount (shared read-only page)
        move t2, s0
        li   t3, 0
comp:   li   t4, 1664525
        mul  t2, t2, t4
        li   t4, 1013904223
        add  t2, t2, t4
        add  t3, t3, t2
        # store into the private buffer (rotating 64 words)
        andi t5, t3, 0xFC
        add  t6, s4, t5
        sw   t2, 0(t6)
        addi t1, t1, -1
        bne  t1, r0, comp
        addi s6, s6, 1
        addi s5, s5, 1
        # every shared_every-th request: publish to the shared log
        li   t0, {shared_every}
        bne  s5, t0, send
        li   s5, 0
        li   r2, 48             # LOCK 1
        li   r4, 1
        syscall
        # shared log slot = req % slots; statistics are batched locally
        # and flushed at thread exit (one shared write per publish).
        li   t0, {slots}
        rem  t1, s0, t0
        li   t0, {slot_stride}
        mul  t1, t1, t0
        la   t2, logbuf
        add  t2, t2, t1
        sw   t3, 0(t2)          # write digest into the shared slot
        sw   s0, 4(t2)
        li   r2, 49             # UNLOCK 1
        li   r4, 1
        syscall
send:   li   r2, 33             # NET_SEND
        move r4, s0
        syscall
        b    wloop
wdone:  # flush the locally batched statistics and retire
        li   r2, 48
        li   r4, 1
        syscall
        la   t2, stats
        lw   t4, 0(t2)
        add  t4, t4, s6
        sw   t4, 0(t2)
        li   r2, 49
        li   r4, 1
        syscall
        li   r2, 48             # LOCK 2 around done_count
        li   r4, 2
        syscall
        la   t0, done_count
        lw   t1, 0(t0)
        addi t1, t1, 1
        sw   t1, 0(t0)
        li   r2, 49
        li   r4, 2
        syscall
        li   r2, 17             # THREAD_EXIT
        syscall

        .data
        .align 4
config: .word {work}
        .space 4092             # keep config on its own (read-only) page
stats:  .word 0
done_count: .word 0
        .space 4088             # stats page
logbuf: .space {log_bytes}
privbuf: .space {priv_bytes}
"#,
        threads = p.threads,
        work = p.work,
        shared_every = p.shared_every,
        slots = p.slots,
        log_bytes = p.slots * slot_stride,
        priv_bytes = MAX_THREADS * 4096,
    )
}

/// Generates a single-threaded request-serving loop distilled from the
/// server worker: the same per-request LCG compute kernel over a private
/// buffer, with one marker syscall (YIELD, harmless under the OS) per
/// completed request and a final processed-count print.
///
/// This is the *witness guest* of the fleet chaos campaigns: it runs on
/// the `Golden` interpreter with no OS underneath (every syscall pauses
/// the interpreter and the host resumes it), so the instructions
/// executed between consecutive syscalls are the measured
/// guest-progress quantum one request costs — the unit the 1k-node
/// traffic model charges per served request.
pub fn request_loop_source(p: &ServerParams, max_requests: u32) -> String {
    assert!(max_requests >= 1, "at least one request");
    format!(
        r#"
# request loop: {max_requests} requests, work={work}
main:   li   s0, {max_requests}
        li   s1, 0              # requests served
        la   s4, buf
rloop:  la   t0, config
        lw   t1, 0(t0)          # work amount
        move t2, s1             # request id seeds the LCG
        li   t3, 0
comp:   li   t4, 1664525
        mul  t2, t2, t4
        li   t4, 1013904223
        add  t2, t2, t4
        add  t3, t3, t2
        andi t5, t3, 0xFC
        add  t6, s4, t5
        sw   t2, 0(t6)
        addi t1, t1, -1
        bne  t1, r0, comp
        addi s1, s1, 1
        li   r2, 18             # YIELD: the request-boundary safe point
        syscall
        bne  s1, s0, rloop
        move r4, s1
        li   r2, 2              # print processed count
        syscall
        halt

        .data
        .align 4
config: .word {work}
        .space 4092             # keep config on its own page
buf:    .space 4096
"#,
        max_requests = max_requests,
        work = p.work,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rse_core::Engine;
    use rse_isa::asm::assemble;
    use rse_isa::{Image, ModuleId};
    use rse_modules::ddt::{Ddt, DdtConfig};
    use rse_pipeline::golden::syscall_quanta;
    use rse_pipeline::Pipeline;
    use rse_sys::{Machine, MachineSpec, ModuleSpec, Os, OsConfig, OsExit};

    /// Runs `image` to a clean exit under the guest OS with `modules`,
    /// the request source delivering `requests` requests.
    fn process(image: &Image, requests: u64, modules: Vec<ModuleSpec>) -> Machine {
        let spec = MachineSpec {
            modules,
            os: Some(OsConfig {
                num_requests: requests,
                ..OsConfig::default()
            }),
            ..MachineSpec::default()
        };
        let mut m = Machine::build(image, spec);
        let exit = m.run(1_000_000_000);
        assert_eq!(exit, OsExit::Exited { code: 0 }, "server did not finish");
        m
    }

    fn run(p: &ServerParams, requests: u64, with_ddt: bool) -> (Pipeline, Engine, Os) {
        let image = assemble(&source(p)).expect("server assembles");
        let modules = if with_ddt {
            vec![ModuleSpec::Ddt(DdtConfig::default())]
        } else {
            Vec::new()
        };
        let m = process(&image, requests, modules);
        (m.cpu, m.engine, m.os.expect("built with the guest OS"))
    }

    #[test]
    fn serves_all_requests() {
        let p = ServerParams {
            threads: 3,
            ..ServerParams::default()
        };
        let (_, _, os) = run(&p, 20, false);
        assert_eq!(os.output, vec![20]);
        assert_eq!(os.stats().requests_delivered, 20);
        assert_eq!(os.stats().responses_sent, 20);
        assert_eq!(os.stats().threads_spawned, 3);
    }

    #[test]
    fn more_threads_overlap_io() {
        let p1 = ServerParams {
            threads: 1,
            ..ServerParams::default()
        };
        let p4 = ServerParams {
            threads: 4,
            ..ServerParams::default()
        };
        let (c1, _, _) = run(&p1, 24, false);
        let (c4, _, _) = run(&p4, 24, false);
        assert!(
            c4.stats().cycles < c1.stats().cycles,
            "4 threads ({}) should beat 1 thread ({})",
            c4.stats().cycles,
            c1.stats().cycles
        );
    }

    #[test]
    fn ddt_tracks_sharing_and_saves_pages() {
        let p = ServerParams {
            threads: 4,
            ..ServerParams::default()
        };
        let (_, mut engine, os) = run(&p, 32, true);
        let ddt: &mut Ddt = engine.module_mut(ModuleId::DDT).unwrap();
        assert!(
            ddt.stats().pages_saved > 0,
            "cross-thread writes must checkpoint"
        );
        assert!(ddt.stats().dependencies_logged > 0);
        assert_eq!(os.stats().pages_checkpointed, ddt.stats().pages_saved);
        assert!(!os.checkpoints.is_empty());
    }

    #[test]
    fn request_loop_serves_and_prints_the_count() {
        let p = ServerParams {
            work: 60,
            ..ServerParams::default()
        };
        let image = assemble(&request_loop_source(&p, 7)).expect("request loop assembles");
        let os = process(&image, 0, Vec::new())
            .os
            .expect("built with the guest OS");
        assert_eq!(os.output, vec![7]);
    }

    #[test]
    fn request_loop_quanta_are_uniform_per_request() {
        let p = ServerParams {
            work: 60,
            ..ServerParams::default()
        };
        let image = assemble(&request_loop_source(&p, 5)).expect("request loop assembles");
        let q = syscall_quanta(&image, 64);
        // One YIELD per request plus the final print.
        assert_eq!(q.len(), 6);
        // Requests 1..n are byte-identical spans; request 0 adds the
        // prologue. Heavier work must cost more progress.
        assert!(q[1] > 0);
        assert_eq!(q[1..5], [q[1], q[1], q[1], q[1]]);
        assert!(q[0] >= q[1]);
        let heavy = ServerParams { work: 120, ..p };
        let heavy_image = assemble(&request_loop_source(&heavy, 5)).unwrap();
        let hq = syscall_quanta(&heavy_image, 64);
        assert!(hq[1] > q[1], "work=120 ({}) vs work=60 ({})", hq[1], q[1]);
    }

    #[test]
    fn single_thread_never_saves_pages() {
        let p = ServerParams {
            threads: 1,
            ..ServerParams::default()
        };
        let (_, engine, _) = run(&p, 16, true);
        let ddt: &Ddt = engine.module_ref(ModuleId::DDT).unwrap();
        assert_eq!(ddt.stats().pages_saved, 0, "one writer owns everything");
    }
}
