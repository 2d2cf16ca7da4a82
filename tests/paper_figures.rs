//! Tier-1 anchors for the paper's Table 1 and Figures 7–9.
//!
//! Table 1's per-capacity geometry is recomputed and pinned to the
//! committed `results/table1.txt`. Each figure is regenerated on the
//! paper's λ grid through the `analytic::sweep` entry points, and the
//! quoted values the paper states in its text and figure captions are
//! pinned against those rows.

use oaq_analytic::compose::Scheme;
use oaq_analytic::geometry::PlaneGeometry;
use oaq_analytic::sweep::{figure7, figure8, figure9, paper_lambda_grid, QosRow};

#[test]
fn table1_geometry_matches_the_committed_table() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/table1.txt"),
    )
    .expect("results/table1.txt is readable");
    // The per-capacity rows: `k  Tr  L1  L2  I  M(τ = 5)`, k = 14 down to 9.
    let rows: Vec<Vec<&str>> = text
        .lines()
        .skip_while(|l| !l.starts_with("k\t"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.split('\t').collect())
        .collect();
    assert_eq!(rows.len(), 6, "one row per k = 9..=14: {rows:?}");
    for row in &rows {
        let k: u32 = row[0].parse().expect("k column");
        let g = PlaneGeometry::reference(k);
        let computed = [
            format!("{:.3}", g.tr()),
            format!("{:.3}", g.l1()),
            format!("{:.3}", g.l2()),
            u8::from(g.is_overlapping()).to_string(),
            g.sequential_chain_bound(5.0)
                .map_or("-".to_string(), |m| m.to_string()),
        ];
        assert_eq!(row[1..], computed, "k = {k}");
    }
    assert_eq!(format!("{:.3}", PlaneGeometry::reference(9).tr()), "10.000");
    assert_eq!(format!("{:.3}", PlaneGeometry::reference(14).tr()), "6.429");
    // Underlap starts first at k = 10 (Tr = Tc counts as underlapping).
    let first_underlap = (9..=14)
        .rev()
        .find(|&k| !PlaneGeometry::reference(k).is_overlapping());
    assert_eq!(first_underlap, Some(10));
    for k in [9, 10] {
        assert_eq!(
            PlaneGeometry::reference(k).sequential_chain_bound(5.0),
            Some(2),
            "M[{k}] at tau = 5"
        );
    }
}

#[test]
fn figure9_matches_the_paper_anchors() {
    let grid = paper_lambda_grid();
    let oaq = figure9(Scheme::Oaq, &grid).unwrap();
    let baq = figure9(Scheme::Baq, &grid).unwrap();
    let (first, last) = (0, grid.len() - 1);
    for (rows, scheme, at_1e5, at_1e4) in [(&oaq, "OAQ", 0.75, 0.41), (&baq, "BAQ", 0.33, 0.04)] {
        let near = |row: &QosRow, paper: f64| (row.p_ge_2 - paper).abs() <= 0.01;
        assert!(
            near(&rows[first], at_1e5),
            "{scheme} P(Y>=2) at 1e-5: {:?}",
            rows[first]
        );
        assert!(
            near(&rows[last], at_1e4),
            "{scheme} P(Y>=2) at 1e-4: {:?}",
            rows[last]
        );
        for row in rows.iter() {
            assert!(
                (row.p_ge_1 - 1.0).abs() <= 1e-9,
                "{scheme} P(Y>=1) at {}",
                row.x
            );
        }
    }
}

#[test]
fn figure8_oaq_gains_up_to_38_percent_and_baq_ignores_mu() {
    let grid = paper_lambda_grid();
    let sweep = |scheme, mu| figure8(scheme, mu, &grid).unwrap();
    let (oaq_02, oaq_05) = (sweep(Scheme::Oaq, 0.2), sweep(Scheme::Oaq, 0.5));
    let (baq_02, baq_05) = (sweep(Scheme::Baq, 0.2), sweep(Scheme::Baq, 0.5));
    let max_gain = oaq_02
        .iter()
        .zip(&oaq_05)
        .map(|(a, b)| a.p_ge_3 / b.p_ge_3 - 1.0)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        (0.37..=0.39).contains(&max_gain),
        "paper reports up to 38%, got {:.1}%",
        max_gain * 100.0
    );
    assert_eq!(baq_02, baq_05, "BAQ must not depend on µ");
}

#[test]
fn figure7_mode_moves_from_full_capacity_to_the_threshold() {
    let grid = paper_lambda_grid();
    let rows = figure7(&grid, 30_000.0, 10).unwrap();
    let mode = |p_k: &[f64]| {
        (0..p_k.len())
            .max_by(|&a, &b| p_k[a].total_cmp(&p_k[b]))
            .unwrap()
    };
    let (low, high) = (&rows[0], &rows[grid.len() - 1]);
    assert_eq!(
        mode(&low.p_k),
        14,
        "P(14) dominates at λ = 1e-5: {:?}",
        low.p_k
    );
    assert_eq!(
        mode(&high.p_k),
        10,
        "P(10) dominates at λ = 1e-4: {:?}",
        high.p_k
    );
    for row in &rows {
        assert_eq!(row.p_k[9], 0.0, "P(9) at λ = {}", row.lambda);
    }
}
