//! Zero-energy link planning — §I and §IV.A brought together.
//!
//! For a candidate tag deployment this example answers the questions a
//! system designer would ask: how far can the tag be read, how fast, how
//! much energy does one report cost, how long must the tag harvest
//! between reports, and will the facility Wi-Fi tolerate the traffic.
//!
//! Run with: `cargo run --release --example zero_energy_link`

use zeiot::backscatter::phy::BackscatterLink;
use zeiot::backscatter::registry::{CycleRegistry, Registration};
use zeiot::core::id::DeviceId;
use zeiot::core::rng::SeedRng;
use zeiot::core::time::SimDuration;
use zeiot::core::units::Watt;
use zeiot::energy::capacitor::Capacitor;
use zeiot::energy::consumer::{DeviceState, PowerProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SeedRng::new(1);
    println!("— zero-energy link planner —\n");

    // Link budget: how far can the paper's ZigBee-backscatter tag reach?
    let link = BackscatterLink::zigbee_testbed()?;
    for target in [0.99, 0.9, 0.5] {
        let range = link
            .max_range_m(1.0, target, 500.0)
            .map(|r| format!("{r:.0} m"))
            .unwrap_or_else(|| "unreachable".to_owned());
        println!("range at {:>2.0}% packet success: {range}", target * 100.0);
    }
    let goodput = link.goodput_bps(1.0, 10.0, 11.0);
    println!("goodput at 10 m: {:.0} kbit/s", goodput / 1e3);

    // Energy per report: 32-byte packet at 250 kbit/s.
    let tag = PowerProfile::backscatter_tag()?;
    let report_energy = tag.tx_energy(DeviceState::Backscatter, 32 * 8, 250e3);
    println!(
        "one 32-byte report costs {:.1} nJ (vs {:.1} µJ on an active radio)",
        report_energy.value() * 1e9,
        PowerProfile::active_802154_node()?
            .tx_energy(DeviceState::ActiveRadio, 32 * 8, 250e3)
            .value()
            * 1e6
    );

    // Harvest time between reports on a 10 µW budget.
    let mut cap = Capacitor::new(47e-6, 2.4, 1.8, 3.0)?;
    let harvest = Watt::new(10e-6);
    let mut seconds = 0.0;
    while !cap.is_on() {
        cap.charge(harvest, SimDuration::from_millis(100));
        seconds += 0.1;
    }
    println!("cold start on 10 µW harvest: {seconds:.1} s to first report");

    // Channel admission: how many such tags fit in 10 % of the band?
    let mut registry = CycleRegistry::new(250e3, 0.10)?;
    let prototype = Registration::new(DeviceId::new(0), SimDuration::from_millis(500), 32 * 8)?;
    let capacity = registry.capacity_for(&prototype);
    println!("admission: {capacity} tags at one 32-byte report per 500 ms fit in 10% of the band");
    for i in 0..capacity.min(100) as u32 {
        registry.register(
            Registration::new(DeviceId::new(i), SimDuration::from_millis(500), 32 * 8)?,
            None,
        )?;
    }
    println!(
        "registered {} tags, band occupation {:.1}%",
        registry.len(),
        registry.total_occupation() * 100.0
    );

    // A stochastic reality check on the 10 m link.
    let delivered = (0..1000)
        .filter(|_| link.try_deliver(1.0, 10.0, 11.0, &mut rng))
        .count();
    println!("monte-carlo delivery at 10 m: {}/1000 packets", delivered);
    Ok(())
}
