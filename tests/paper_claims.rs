//! End-to-end checks of the paper's headline claims, run on the full
//! evaluation grid (512×512×256) with reduced search spaces so the suite
//! stays fast.

use inplane_isl::prelude::*;
use inplane_isl::sim::measure_achieved_bandwidth;
use stencil_autotune::ParameterSpace;
use stencil_grid::Precision;

fn tune(dev: &DeviceSpec, kernel: &KernelSpec, dims: GridDims, register_blocking: bool) -> f64 {
    let space = ParameterSpace::quick_space(dev, kernel, &dims);
    let space = if register_blocking {
        space
    } else {
        ParameterSpace::from_configs(
            space
                .configs()
                .iter()
                .copied()
                .filter(|c| !c.has_register_blocking())
                .collect(),
        )
    };
    exhaustive_tune_with(&EvalContext::new(), dev, kernel, dims, &space, 1)
        .best
        .mpoints
}

#[test]
fn abstract_claim_speedup_near_2x_exists() {
    // "Our results show that a speedup of nearly 2x can be achieved
    // compared to Nvidia's implementation."
    let dims = GridDims::paper();
    let mut best = 0.0f64;
    for dev in DeviceSpec::paper_devices() {
        let nv = tune(
            &dev,
            &KernelSpec::star_order(
                inplane_isl::core::Method::ForwardPlane,
                2,
                Precision::Single,
            ),
            dims,
            false,
        );
        let fs = tune(
            &dev,
            &KernelSpec::star_order(
                inplane_isl::core::Method::InPlane(Variant::FullSlice),
                2,
                Precision::Single,
            ),
            dims,
            true,
        );
        best = best.max(fs / nv);
    }
    assert!(
        best > 1.6,
        "best order-2 speedup {best:.2} should approach 2x"
    );
    assert!(best < 2.8, "speedup {best:.2} implausibly high");
}

#[test]
fn table4_gtx580_sp_absolute_rates_within_band() {
    // Tuned full-slice MPoint/s within ±40% of the paper's Table IV
    // values on GTX580 SP.
    let paper = [(2usize, 17294.0), (4, 14348.6), (8, 9254.5), (12, 6503.6)];
    let dev = DeviceSpec::gtx580();
    let dims = GridDims::paper();
    for (order, expect) in paper {
        let got = tune(
            &dev,
            &KernelSpec::star_order(
                inplane_isl::core::Method::InPlane(Variant::FullSlice),
                order,
                Precision::Single,
            ),
            dims,
            true,
        );
        let ratio = got / expect;
        assert!(
            (0.6..1.4).contains(&ratio),
            "order {order}: {got:.0} vs paper {expect:.0} (ratio {ratio:.2})"
        );
    }
}

#[test]
fn measured_bandwidths_match_section_iv_a() {
    let cases = [
        (DeviceSpec::gtx580(), 161.0),
        (DeviceSpec::gtx680(), 150.0),
        (DeviceSpec::c2070(), 117.5),
    ];
    for (dev, expect) in cases {
        let got = measure_achieved_bandwidth(&dev);
        assert!(
            (got - expect).abs() / expect < 0.03,
            "{}: {got:.1}",
            dev.name
        );
    }
}

#[test]
fn speedup_decreases_with_stencil_order() {
    // §IV-C: "the speedup generally decreases as the order of the
    // stencil is increased" — compare the low-order and high-order means.
    let dev = DeviceSpec::gtx580();
    let dims = GridDims::paper();
    let speedup = |order: usize| {
        let nv = tune(
            &dev,
            &KernelSpec::star_order(
                inplane_isl::core::Method::ForwardPlane,
                order,
                Precision::Single,
            ),
            dims,
            false,
        );
        let fs = tune(
            &dev,
            &KernelSpec::star_order(
                inplane_isl::core::Method::InPlane(Variant::FullSlice),
                order,
                Precision::Single,
            ),
            dims,
            true,
        );
        fs / nv
    };
    let low = (speedup(2) + speedup(4)) / 2.0;
    let high = (speedup(10) + speedup(12)) / 2.0;
    assert!(
        low > high,
        "low-order mean {low:.2} vs high-order mean {high:.2}"
    );
}

#[test]
fn dp_speedups_are_smaller_than_sp_on_gtx680() {
    // §IV-C: "for the DP case, only marginal speedup is achieved for
    // high order stencils on GTX580 and GTX680".
    let dev = DeviceSpec::gtx680();
    let dims = GridDims::paper();
    let speedup = |order: usize, prec: Precision| {
        let nv = tune(
            &dev,
            &KernelSpec::star_order(inplane_isl::core::Method::ForwardPlane, order, prec),
            dims,
            false,
        );
        let fs = tune(
            &dev,
            &KernelSpec::star_order(
                inplane_isl::core::Method::InPlane(Variant::FullSlice),
                order,
                prec,
            ),
            dims,
            true,
        );
        fs / nv
    };
    let sp = speedup(10, Precision::Single);
    let dp = speedup(10, Precision::Double);
    assert!(
        dp < sp,
        "order-10 GTX680: DP {dp:.2} should trail SP {sp:.2}"
    );
    assert!(
        dp < 1.45,
        "high-order DP speedup should be marginal, got {dp:.2}"
    );
}

#[test]
fn c2070_supports_very_high_orders() {
    // §IV-C: "for Tesla C2070 ... speedups can be achieved for up to
    // 32nd order for SP stencils". Verify the machinery handles order 32
    // and still favours the in-plane method.
    let dev = DeviceSpec::c2070();
    let dims = GridDims::paper();
    let nv = tune(
        &dev,
        &KernelSpec::star_order(
            inplane_isl::core::Method::ForwardPlane,
            32,
            Precision::Single,
        ),
        dims,
        false,
    );
    let fs = tune(
        &dev,
        &KernelSpec::star_order(
            inplane_isl::core::Method::InPlane(Variant::FullSlice),
            32,
            Precision::Single,
        ),
        dims,
        true,
    );
    let hz = tune(
        &dev,
        &KernelSpec::star_order(
            inplane_isl::core::Method::InPlane(Variant::Horizontal),
            32,
            Precision::Single,
        ),
        dims,
        true,
    );
    assert!(nv > 0.0 && fs > 0.0 && hz > 0.0);
    // At radius 16 the full-slice 4r² corner overhead is punishing in a
    // pure-traffic model; the corner-free horizontal variant carries the
    // in-plane win at extreme orders (see EXPERIMENTS.md).
    let best_inplane = fs.max(hz);
    assert!(
        best_inplane / nv > 1.0,
        "order-32 SP speedup {:.2}",
        best_inplane / nv
    );
    assert!(
        fs / nv > 0.8,
        "full-slice should remain competitive, got {:.2}",
        fs / nv
    );
}
