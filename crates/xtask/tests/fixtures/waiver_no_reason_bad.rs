// Fixture: a waiver without a reason is rejected AND waives nothing —
// both the directive finding and the underlying violation must fire.

// lint: hot-path
pub fn sneaky(x: &[f64]) -> Vec<f64> {
    x.to_vec() // lint: allow(hot-path-alloc)
}
