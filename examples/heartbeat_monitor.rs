//! The Adaptive Heartbeat Monitor watching guest threads (§4.4,
//! Figure 7): two worker threads heartbeat via `AHBM_BEAT` CHECK
//! instructions; one of them wedges in a computation loop and the
//! monitor's adaptive timeout declares it dead while the other stays
//! healthy.
//!
//! ```text
//! cargo run --example heartbeat_monitor
//! ```

use rse::isa::asm::assemble;
use rse::isa::ModuleId;
use rse::modules::ahbm::{Ahbm, AhbmConfig};
use rse::sys::{Machine, MachineSpec, ModuleSpec, OsConfig, OsExit};

/// Entity 1 = steady worker; entity 2 = worker that wedges half-way.
const SRC: &str = r#"
    main:   chk  ahbm, nblk, 2, 1   # AHBM_REGISTER(1)
            chk  ahbm, nblk, 2, 2   # AHBM_REGISTER(2)
            li   r2, 16
            la   r4, steady
            li   r5, 0
            syscall
            li   r2, 16
            la   r4, wedger
            li   r5, 0
            syscall
    wait:   la   t0, done
            lw   t1, 0(t0)
            li   t2, 1
            beq  t1, t2, fin
            li   r2, 18             # YIELD
            syscall
            b    wait
    fin:    halt

    steady: li   s0, 60             # 60 work units, beating every unit
    sloop:  li   s1, 300
    swork:  addi s1, s1, -1
            bne  s1, r0, swork
            chk  ahbm, nblk, 3, 1   # AHBM_BEAT(1)
            li   r2, 18
            syscall
            addi s0, s0, -1
            bne  s0, r0, sloop
            la   t0, done
            li   t1, 1
            sw   t1, 0(t0)
            li   r2, 17
            syscall

    wedger: li   s0, 10             # beats for 10 units...
    wloop:  li   s1, 300
    wwork:  addi s1, s1, -1
            bne  s1, r0, wwork
            chk  ahbm, nblk, 3, 2   # AHBM_BEAT(2)
            li   r2, 18
            syscall
            addi s0, s0, -1
            bne  s0, r0, wloop
    hang:   li   r2, 18             # ...then wedges: yields forever,
            syscall                 # never beating again
            b    hang

            .data
    done:   .word 0
"#;

fn main() {
    let image = assemble(SRC).expect("assembles");
    let ahbm = ModuleSpec::Ahbm(AhbmConfig {
        sample_interval: 200,
        min_timeout: 400,
        ..AhbmConfig::default()
    });
    let spec = MachineSpec {
        modules: vec![ahbm],
        os: Some(OsConfig::default()),
        ..MachineSpec::default()
    };
    let mut m = Machine::build(&image, spec);
    let exit = m.run(50_000_000);
    assert_eq!(exit, OsExit::Exited { code: 0 });

    let ahbm: &mut Ahbm = m.engine.module_mut(ModuleId::AHBM).expect("AHBM installed");
    let steady = *ahbm.entity(1).expect("registered");
    let wedged = *ahbm.entity(2).expect("registered");
    println!(
        "entity 1 (steady): alive={} beats={} adaptive timeout={} cycles",
        steady.alive, steady.counter, steady.timeout
    );
    println!(
        "entity 2 (wedged): alive={} beats={} adaptive timeout={} cycles",
        wedged.alive, wedged.counter, wedged.timeout
    );
    println!("failures declared: {:?}", ahbm.take_failed());
    assert!(steady.alive, "the steady worker must stay alive");
    assert!(!wedged.alive, "the wedged worker must be declared dead");
    println!("\nThe monitor learned each entity's own heartbeat rate; the wedged");
    println!("thread was declared dead roughly one adaptive timeout after its");
    println!("last beat, while the steady thread was never falsely accused.");
}
