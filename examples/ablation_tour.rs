//! A guided tour of the design-choice ablations: run one identical Fio
//! write workload across every system variant and print where each of the
//! paper's claimed costs shows up.
//!
//! ```text
//! cargo run --release --example ablation_tour
//! ```

use tinca_repro::fssim::stack::{build, StackConfig, System};
use tinca_repro::workloads::fio::{Fio, FioSpec};
use tinca_repro::workloads::measure;

fn main() {
    let systems = [
        (
            System::Tinca,
            "the paper's design: role switch + 16B entries",
        ),
        (
            System::TincaNoRoleSwitch,
            "ablation: commit degrades to double writes",
        ),
        (
            System::Ubj,
            "UBJ baseline: freeze-in-place + txn checkpoints",
        ),
        (
            System::Classic,
            "legacy stack: JBD2 journal over Flashcache",
        ),
        (
            System::ClassicNoMeta,
            "Classic without synchronous metadata",
        ),
        (
            System::ClassicNoJournal,
            "Classic without journaling (unsafe)",
        ),
    ];
    println!(
        "{:<26} {:>10} {:>12} {:>12} {:>12}   note",
        "system", "write IOPS", "clflush/op", "disk wr/op", "NVM MB"
    );
    let mut base = 0.0;
    for (sys, note) in systems {
        let mut cfg = StackConfig::scaled_local(sys);
        cfg.nvm_bytes = 16 << 20;
        let mut stack = build(&cfg).expect("stack");
        let mut fio = Fio::new(FioSpec::paper(0, cfg.nvm_bytes, 8_000, 0xAB1));
        fio.setup(&mut stack);
        let m = measure(&stack, sys.name());
        let _ = fio.run(&mut stack);
        let r = m.finish(&stack, fio.write_ops());
        if base == 0.0 {
            base = r.ops_per_sec();
        }
        println!(
            "{:<26} {:>10.0} {:>12.1} {:>12.2} {:>12.1}   {note}",
            sys.name(),
            r.ops_per_sec(),
            r.clflush_per_op(),
            r.disk_writes_per_op(),
            r.nvm_mb_written(),
        );
    }
    println!("\nReading the table:");
    println!(" - Tinca vs Tinca-noroleswitch isolates the double-write cost (§4.3).");
    println!(" - Tinca vs UBJ isolates freeze-in-place's frozen-update memcpy + checkpoint stalls (§5.4.4).");
    println!(" - Classic vs Classic-nometa isolates the 4KB metadata-block updates (§3.2/Fig 4).");
    println!(" - Classic vs Classic-nojournal isolates the journal itself (§3.1/Fig 3).");
}
