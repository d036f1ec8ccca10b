//! `powifi_plan` — a deployment planner for Wi-Fi-powered devices.
//!
//! Answers the question a PoWiFi adopter actually has: *"can I put this
//! sensor there?"* Given a distance, wall stack and expected occupancy, it
//! reports received power, harvester feasibility per device class, and the
//! achievable duty cycles.
//!
//! ```text
//! cargo run --release -p powifi-bench --bin powifi_plan -- \
//!     --distance-ft 12 --wall sheetrock --occupancy 90
//! ```

use powifi_bench::cli::{self, Args, Stop};
use powifi_rf::{Dbm, Hertz, WallMaterial};
use powifi_sensors::{exposure_at, Camera, TemperatureSensor, UsbCharger};

const USAGE: &str = "usage: powifi_plan [--distance-ft N] \
     [--wall glass|wood|hollow|sheetrock]... [--occupancy PCT]";

const VALUED: &[(&str, &str)] = &[
    ("--distance-ft", "a non-negative number"),
    ("--wall", "glass, wood, hollow or sheetrock"),
    ("--occupancy", "a non-negative number"),
];

struct Plan {
    distance_ft: f64,
    walls: Vec<WallMaterial>,
    cumulative_occupancy: f64,
}

fn wall(name: &str) -> Option<WallMaterial> {
    match name.to_ascii_lowercase().as_str() {
        "glass" => Some(WallMaterial::Glass1In),
        "wood" => Some(WallMaterial::Wood1_8In),
        "hollow" => Some(WallMaterial::HollowWall5_4In),
        "sheetrock" => Some(WallMaterial::SheetRock7_9In),
        _ => None,
    }
}

fn read(argv: Vec<String>) -> Result<Plan, Stop> {
    let a = Args::read(argv, VALUED, &[])?;
    Ok(Plan {
        distance_ft: a.non_negative("--distance-ft")?.unwrap_or(10.0),
        walls: a.all("--wall", wall)?,
        cumulative_occupancy: a.non_negative("--occupancy")?.unwrap_or(90.0),
    })
}

fn main() {
    let plan = cli::parse(USAGE, read);
    let duty = (plan.cumulative_occupancy / 100.0 / 3.0).clamp(0.0, 1.0);
    let exposure: Vec<(Hertz, Dbm, f64)> = exposure_at(plan.distance_ft, duty, &plan.walls);

    println!("PoWiFi deployment plan");
    println!("  distance: {} ft", plan.distance_ft);
    if plan.walls.is_empty() {
        println!("  walls: none (line of sight)");
    } else {
        for w in &plan.walls {
            println!("  wall: {} ({} dB)", w.label(), w.attenuation().0);
        }
    }
    println!(
        "  router cumulative occupancy: {} %",
        plan.cumulative_occupancy
    );
    println!("  received power per channel: {:.1} dBm", exposure[1].1 .0);
    println!();

    let temp_bf = TemperatureSensor::battery_free();
    let temp_bc = TemperatureSensor::battery_recharging();
    let report_rate = |label: &str, rate: f64| {
        if rate >= 0.02 {
            println!("  [OK]   {label}: {rate:.2} readings/s");
        } else {
            println!("  [--]   {label}: not enough power");
        }
    };
    println!("temperature sensors (2.77 uJ/reading):");
    report_rate("battery-free  ", temp_bf.update_rate(&exposure));
    report_rate("recharging    ", temp_bc.update_rate(&exposure));

    println!("cameras (10.4 mJ/frame):");
    for (label, cam) in [
        ("battery-free  ", Camera::battery_free()),
        ("recharging    ", Camera::battery_recharging()),
    ] {
        match cam.inter_frame_secs(&exposure) {
            Some(s) if s < 24.0 * 3600.0 => {
                println!("  [OK]   {label}: a frame every {:.1} min", s / 60.0)
            }
            Some(_) | None => println!("  [--]   {label}: not enough power"),
        }
    }

    println!("usb trickle charger:");
    let charger = UsbCharger::jawbone_demo();
    let cm = plan.distance_ft * 30.48;
    let ma = charger.charge_current_ma(cm, duty);
    if ma > 0.1 {
        println!("  [OK]   {ma:.2} mA average charge current");
    } else {
        println!("  [--]   {ma:.3} mA — park it next to the router (5-7 cm)");
    }

    // A placement hint: how much closer for the first failing device?
    if temp_bf.update_rate(&exposure) < 0.02 {
        let mut ft = plan.distance_ft;
        while ft > 0.5 {
            ft -= 0.5;
            if TemperatureSensor::battery_free().update_rate(&exposure_at(ft, duty, &plan.walls))
                >= 0.02
            {
                println!(
                    "\nhint: the battery-free sensor would work at {ft:.1} ft with this wall stack"
                );
                break;
            }
        }
    }
}
