//! Self-contained SVG Gantt rendering of a [`SimulationReport`] — one lane
//! per VM, one bar per task, boot/idle shading, for eyeballing schedules
//! without external tooling.

use crate::report::SimulationReport;
use std::fmt::Write;

/// Total chart width in pixels (time axis).
const WIDTH: u32 = 900;
/// Height of one VM lane in pixels.
const LANE_HEIGHT: u32 = 22;
/// Left margin reserved for VM labels.
const LABEL_WIDTH: u32 = 80;

/// Colour for a task bar: stable per task id, readable on white.
fn task_color(task_id: u32) -> String {
    // Golden-angle hue walk gives well-separated hues for neighbours.
    let hue = (task_id as f64 * 137.508) % 360.0;
    format!("hsl({hue:.0},65%,60%)")
}

/// Render the report as an SVG document string.
pub fn to_svg(report: &SimulationReport) -> String {
    let span = report.makespan.max(1e-9);
    let start0 = report.vms.iter().map(|v| v.booked_at).fold(f64::INFINITY, f64::min);
    let start0 = if start0.is_finite() { start0 } else { 0.0 };
    let x = |t: f64| -> f64 {
        LABEL_WIDTH as f64 + (t - start0) / span * (WIDTH - LABEL_WIDTH) as f64
    };
    let lanes = report.vms.len().max(1) as u32;
    let height = lanes * LANE_HEIGHT + 30;

    let mut s = String::with_capacity(4096);
    let _ = write!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{height}" font-family="monospace" font-size="11">"#,
        w = WIDTH
    );
    let _ = writeln!(s, "\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>");

    for (lane, vm) in report.vms.iter().enumerate() {
        let y = lane as u32 * LANE_HEIGHT + 4;
        let h = LANE_HEIGHT - 6;
        // Lane label.
        let _ = writeln!(
            s,
            r#"<text x="4" y="{ty}">{vm_id} c{cat}</text>"#,
            ty = y + h / 2 + 4,
            vm_id = vm.vm,
            cat = vm.category.0
        );
        // Rental window (light) and boot segment (hatched grey).
        let _ = writeln!(
            s,
            r##"<rect x="{rx:.1}" y="{y}" width="{rw:.1}" height="{h}" fill="#eee"/>"##,
            rx = x(vm.booked_at),
            rw = (x(vm.released_at) - x(vm.booked_at)).max(1.0),
        );
        let _ = writeln!(
            s,
            r##"<rect x="{bx:.1}" y="{y}" width="{bw:.1}" height="{h}" fill="#ccc"/>"##,
            bx = x(vm.booked_at),
            bw = (x(vm.ready_at) - x(vm.booked_at)).max(0.5),
        );
    }
    // Task bars with tooltips.
    for t in &report.tasks {
        let Some(lane) = report.vms.iter().position(|v| v.vm == t.vm) else { continue };
        let y = lane as u32 * LANE_HEIGHT + 4;
        let h = LANE_HEIGHT - 6;
        let _ = writeln!(
            s,
            r#"<rect x="{tx:.1}" y="{y}" width="{tw:.1}" height="{h}" fill="{fill}"><title>{title}</title></rect>"#,
            tx = x(t.start),
            tw = (x(t.end) - x(t.start)).max(1.0),
            fill = task_color(t.task.0),
            title = format_args!(
                "{} on {} [{:.1}s – {:.1}s], {:.0} Gflop",
                t.task, t.vm, t.start, t.end, t.realized_weight
            ),
        );
    }
    // Footer.
    let _ = writeln!(
        s,
        r#"<text x="{lx}" y="{fy}">makespan {mk:.1}s   cost ${c:.4}   VMs {v}</text>"#,
        lx = LABEL_WIDTH,
        fy = height - 8,
        mk = report.makespan,
        c = report.total_cost,
        v = report.vms_used,
    );
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use crate::{simulate, SimConfig};
    use wfs_platform::{CategoryId, Platform};
    use wfs_workflow::gen::{montage, GenConfig};

    fn sample_report() -> SimulationReport {
        let wf = montage(GenConfig::new(30, 1));
        let p = Platform::paper_default();
        let mut s = Schedule::new(wf.task_count());
        let v0 = s.add_vm(CategoryId(0));
        let v1 = s.add_vm(CategoryId(2));
        for (i, &t) in wf.topological_order().iter().enumerate() {
            s.assign(t, if i % 2 == 0 { v0 } else { v1 });
        }
        // Interleaved round-robin can deadlock; fall back to two halves.
        if s.validate(&wf).is_err() {
            let mut s2 = Schedule::new(wf.task_count());
            let v0 = s2.add_vm(CategoryId(0));
            for &t in wf.topological_order() {
                s2.assign(t, v0);
            }
            return simulate(&wf, &p, &s2, &SimConfig::stochastic(1)).unwrap();
        }
        simulate(&wf, &p, &s, &SimConfig::stochastic(1)).unwrap()
    }

    #[test]
    fn svg_is_well_formed_and_complete() {
        let r = sample_report();
        let svg = to_svg(&r);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // One lane label per booked VM, one bar per task.
        let bars = svg.matches("<title>").count();
        assert_eq!(bars, r.tasks.len());
        for vm in &r.vms {
            assert!(svg.contains(&format!("{} c{}", vm.vm, vm.category.0)));
        }
        assert!(svg.contains("makespan"));
    }

    #[test]
    fn colors_are_stable_and_distinct() {
        assert_eq!(task_color(3), task_color(3));
        assert_ne!(task_color(3), task_color(4));
    }
}
