//! End-to-end properties of the whole stack: workload correctness under
//! every machine configuration, determinism, and the monotonicity
//! relations the Table 4 experiment depends on.

use rse::isa::asm::assemble;
use rse::isa::ModuleId;
use rse::modules::icm::{Icm, IcmConfig};
use rse::pipeline::{CheckPolicy, FetchFault};
use rse::sys::{Machine, MachineSpec, ModuleSpec, OsExit};
use rse::workloads::{instrument, kmeans, place, route};
use rse_bench::MachineConfig;

fn run(image: &rse::isa::Image, config: MachineConfig) -> (Vec<i32>, u64) {
    let mut m = Machine::build(image, config.spec());
    assert_eq!(m.run(1_000_000_000), OsExit::Exited { code: 0 });
    let output = m.os.expect("an OS run").output;
    (output, m.cpu.stats().cycles)
}

/// Every machine configuration computes the same architectural results
/// (the framework is *detection*, never a change of semantics), and the
/// results match the host-side reference implementations.
#[test]
fn all_configurations_agree_with_references() {
    let kp = kmeans::KmeansParams {
        patterns: 40,
        dims: 4,
        clusters: 4,
        iters: 2,
        seed: 5,
    };
    let rp = route::RouteParams {
        width: 10,
        nets: 5,
        block_pct: 10,
        seed: 9,
    };
    let pp = place::PlaceParams {
        cells: 16,
        nets_per_block: 8,
        blocks: 2,
        grid: 8,
        iters: 40,
        ..place::PlaceParams::default()
    };
    let (kc, _) = kmeans::reference(&kp);
    let (rr, rw) = route::reference(&rp);
    let pc = place::reference(&pp);
    for (name, src, expected) in [
        ("kmeans", kmeans::source(&kp), vec![kc as i32]),
        ("route", route::source(&rp), vec![rr as i32, rw as i32]),
        ("place", place::source(&pp), vec![pc as i32]),
    ] {
        let image = assemble(&src).unwrap();
        for config in [
            MachineConfig::Baseline,
            MachineConfig::Framework,
            MachineConfig::FrameworkIcm,
        ] {
            let (out, _) = run(&image, config);
            assert_eq!(
                out, expected,
                "{name} result must be configuration-independent"
            );
        }
    }
}

/// Cycle counts are strictly ordered: baseline ≤ framework ≤ framework+ICM
/// (the Table 4 relation), and simulation is bit-deterministic.
#[test]
fn configuration_cost_ordering_and_determinism() {
    let kp = kmeans::KmeansParams {
        patterns: 60,
        dims: 8,
        clusters: 4,
        iters: 2,
        seed: 5,
    };
    let image = assemble(&kmeans::source(&kp)).unwrap();
    let (_, base1) = run(&image, MachineConfig::Baseline);
    let (_, base2) = run(&image, MachineConfig::Baseline);
    assert_eq!(base1, base2, "simulation must be deterministic");
    let (_, fw) = run(&image, MachineConfig::Framework);
    let (_, icm) = run(&image, MachineConfig::FrameworkIcm);
    assert!(base1 <= fw, "baseline {base1} vs framework {fw}");
    assert!(fw < icm, "framework {fw} vs framework+ICM {icm}");
}

/// The static CHECK/NOP instrumentation preserves program semantics and
/// costs cycles (the cache study of §5.1).
#[test]
fn static_instrumentation_preserves_results_and_costs_cycles() {
    let rp = route::RouteParams {
        width: 16,
        nets: 8,
        block_pct: 10,
        seed: 2,
    };
    let src = route::source(&rp);
    let (rr, rw) = route::reference(&rp);
    let plain = assemble(&src).unwrap();
    for what in [instrument::StaticInsert::Nop, instrument::StaticInsert::Chk] {
        let instrumented = assemble(&instrument::instrument_control_flow(&src, what)).unwrap();
        let (out_p, cyc_p) = run(&plain, MachineConfig::Baseline);
        let (out_i, cyc_i) = run(&instrumented, MachineConfig::Baseline);
        assert_eq!(out_p, vec![rr as i32, rw as i32]);
        assert_eq!(out_i, out_p, "instrumentation must not change results");
        assert!(cyc_i > cyc_p, "fetching the inserted words costs cycles");
    }
}

/// ICM protection under randomized fault injection: a single-bit flip in
/// a fetched *checked* (control-flow) instruction is detected (mismatch →
/// flush → clean refetch) and the program produces the right answer. A
/// flip in an unchecked instruction may corrupt data silently or even
/// hang the program — the uncontrolled failures the paper's preemptive
/// checking argument is about — so those trials only need to terminate
/// within the cycle budget or time out without wedging the simulator.
#[test]
fn icm_fault_injection_campaign() {
    let src = r#"
        main:   li   r8, 0
                li   r9, 40
        loop:   addi r8, r8, 1
                bne  r8, r9, loop
                halt
    "#;
    let image = assemble(src).unwrap();
    let mut detected = 0;
    for trial in 0..24u64 {
        let index = 3 + (trial % 6) * 2; // odd indices land on the checked bne
        let bit = 1u32 << ((trial * 7) % 26);
        let spec = MachineSpec {
            check_policy: CheckPolicy::ControlFlow,
            modules: vec![ModuleSpec::Icm(IcmConfig::default())],
            ..MachineSpec::default()
        };
        let mut m = Machine::build(&image, spec);
        m.cpu.set_fetch_fault(Some(FetchFault::xor(index, bit)));
        let exit = m.run(2_000_000);
        let icm: &Icm = m.engine.module_ref(ModuleId::ICM).unwrap();
        if icm.stats().mismatches > 0 {
            detected += 1;
            assert_eq!(
                exit,
                OsExit::Exited { code: 0 },
                "trial {trial} not recovered"
            );
            assert_eq!(
                m.cpu.regs()[8],
                40,
                "detected faults must be fully recovered"
            );
        } else {
            // Undetected (unchecked instruction hit): silent corruption or
            // a hang are both possible — the failure modes the ICM exists
            // to preempt.
            assert!(
                matches!(exit, OsExit::Exited { code: 0 } | OsExit::Timeout),
                "trial {trial}: {exit:?}"
            );
        }
    }
    assert!(
        detected >= 4,
        "the campaign must exercise the detection path ({detected})"
    );
}
