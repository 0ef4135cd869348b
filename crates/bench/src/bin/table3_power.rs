//! Paper Table III: smartphone power consumption during screening.
//!
//! The paper measures ~2100 / 2120 / 2243 mW on Huawei / Galaxy / MI 10.
//! We cannot instrument a handset power rail, so this binary evaluates the
//! documented operation-energy model (`earsonar_bench::power`): platform base
//! draw + audio chain + CPU duty cycle from the *measured* pipeline
//! latency. The substitution is recorded in DESIGN.md.

use earsonar::report::{num, Table};
use earsonar::{EarSonar, EarSonarConfig};
use earsonar_bench::power::{measure_stage_latency, paper_power_table};
use earsonar_bench::standard_dataset;
use earsonar_sim::session::SessionConfig;

const PAPER_MW: [(&str, f64); 3] = [("Huawei", 2100.0), ("Galaxy", 2120.0), ("MI 10", 2243.0)];

fn main() {
    println!("Table III — smartphone power model\n");
    let cfg = EarSonarConfig::default();
    let dataset = standard_dataset(8, SessionConfig::default());
    let system = EarSonar::fit(&dataset.sessions, &cfg).expect("fit");
    let recording = &dataset.sessions[0].recording;
    let latency = measure_stage_latency(&system, recording, 10).expect("latency measurement");
    let modelled = paper_power_table(&latency, recording.duration_s() * 1e3);

    let mut t = Table::new("Table III: Power consumption of EarSonar");
    t.header(["smartphone", "paper (mW)", "modelled (mW)"]);
    for ((name, paper), (model_name, mw)) in PAPER_MW.iter().zip(&modelled) {
        assert_eq!(name, model_name);
        t.row([name.to_string(), num(*paper, 0), num(*mw, 0)]);
    }
    print!("{}", t.render());
    println!(
        "\nshape check (paper): all handsets near 2.1 W, MI 10 highest —\n\
         both properties hold by model construction + measured duty cycle."
    );
}
