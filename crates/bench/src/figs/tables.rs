//! Table 1 (NVM technologies) and Table 2 (benchmark roster).

use nvmsim::NvmTech;

use crate::table::Table;
use crate::{banner, write_csv};

/// Table 1: the NVM technology parameters the simulator uses.
pub fn table1() -> Vec<String> {
    banner(
        "Table 1",
        "Typical DRAM and NVM technologies (simulator latency presets)",
        "DRAM/NVDIMM 60ns; STT-RAM +50/50ns; PCM +50ns read / +180ns write (§5.1)",
    );
    let mut t = Table::new(&["Technology", "Read (ns/line)", "Write (ns/line)"]);
    for tech in NvmTech::all() {
        t.row(vec![
            tech.name().into(),
            tech.read_ns().to_string(),
            tech.write_ns().to_string(),
        ]);
    }
    t.print();
    write_csv("table1", &t.headers(), t.rows());
    Vec::new()
}

/// Table 2: the benchmark roster at paper scale and at this repo's scale.
pub fn table2() -> Vec<String> {
    banner(
        "Table 2",
        "Benchmarks used to evaluate Tinca and Classic",
        "2 local + 4 cluster benchmarks; datasets scaled with the cache, ratios preserved",
    );
    let mut t = Table::new(&[
        "Tier",
        "Benchmark",
        "R/W",
        "Request",
        "Paper dataset",
        "Scaled dataset",
        "Description",
    ]);
    for r in workloads::spec::table2() {
        t.row(vec![
            r.tier.into(),
            r.benchmark.into(),
            r.rw_ratio.into(),
            r.request_size.into(),
            r.paper_dataset.into(),
            r.scaled_dataset.into(),
            r.description.into(),
        ]);
    }
    t.print();
    write_csv("table2", &t.headers(), t.rows());
    Vec::new()
}
